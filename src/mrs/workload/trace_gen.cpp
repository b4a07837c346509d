#include "mrs/workload/trace_gen.hpp"

#include <cmath>
#include <numbers>

#include "mrs/common/check.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::workload {

namespace {

/// Zipf exponent of the per-job user draw (user 0 heaviest).
constexpr double kUserSkew = 1.2;

/// Sojourn-weighted mean of the burst chain's rate factor: the chain
/// spends mean_calm / (mean_calm + mean_burst) of its time at 1x and the
/// rest at multiplier x. Dividing the base rate by this keeps the
/// long-run mean at cfg.mean_rate_per_hour regardless of burstiness
/// (the diurnal sinusoid is mean-1 by construction).
double burst_mean_factor(const TraceGenConfig& cfg) {
  const double calm = cfg.mean_calm_sojourn;
  const double burst = cfg.mean_burst_sojourn;
  if (burst <= 0.0 || cfg.burst_rate_multiplier == 1.0) return 1.0;
  return (calm + cfg.burst_rate_multiplier * burst) / (calm + burst);
}

}  // namespace

struct ProductionTraceGenerator::Impl {
  Impl(const TraceGenConfig& c, const Rng& rng)
      : cfg(c),
        time_rng(rng.split("gen-times")),
        burst_rng(rng.split("gen-burst")),
        mix_rng(rng.split("gen-mix")),
        user_rng(rng.split("gen-users")) {
    MRS_REQUIRE(cfg.duration > 0.0);
    MRS_REQUIRE(cfg.mean_rate_per_hour > 0.0);
    MRS_REQUIRE(cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude < 1.0);
    MRS_REQUIRE(cfg.diurnal_period > 0.0);
    MRS_REQUIRE(cfg.burst_rate_multiplier >= 1.0);
    MRS_REQUIRE(cfg.mean_calm_sojourn > 0.0);
    MRS_REQUIRE(cfg.users > 0);
    base_rate = cfg.mean_rate_per_hour / burst_mean_factor(cfg);
    max_rate = base_rate * (1.0 + cfg.diurnal_amplitude) *
               cfg.burst_rate_multiplier;
    next_switch = burst_rng.exponential(cfg.mean_calm_sojourn);
  }

  /// Advance the modulating burst chain past `t`. The chain evolves on
  /// its own RNG child independent of accept/reject decisions, so the
  /// burst episode schedule is invariant under thinning.
  void advance_burst_chain(Seconds t) {
    while (next_switch <= t) {
      burst = !burst;
      next_switch += burst_rng.exponential(burst ? cfg.mean_burst_sojourn
                                                 : cfg.mean_calm_sojourn);
    }
  }

  /// Instantaneous intensity lambda(t) in jobs/hour.
  [[nodiscard]] double rate_at(Seconds t) const {
    const double diurnal =
        1.0 + cfg.diurnal_amplitude *
                  std::sin(2.0 * std::numbers::pi * t / cfg.diurnal_period);
    return base_rate * diurnal * (burst ? cfg.burst_rate_multiplier : 1.0);
  }

  TraceGenConfig cfg;
  Rng time_rng;
  Rng burst_rng;
  Rng mix_rng;
  Rng user_rng;
  double base_rate = 0.0;
  double max_rate = 0.0;
  Seconds now = 0.0;
  bool burst = false;
  Seconds next_switch = 0.0;
  std::size_t yielded = 0;
  bool done = false;
};

ProductionTraceGenerator::ProductionTraceGenerator(const TraceGenConfig& cfg,
                                                   const Rng& rng)
    : impl_(std::make_unique<Impl>(cfg, rng)) {}

ProductionTraceGenerator::~ProductionTraceGenerator() = default;

std::optional<Arrival> ProductionTraceGenerator::next() {
  Impl& s = *impl_;
  if (s.done) return std::nullopt;
  // Ogata thinning: candidate points arrive homogeneous-Poisson at the
  // rate ceiling; each is accepted with probability lambda(t)/lambda_max.
  while (true) {
    s.now += s.time_rng.exponential(3600.0 / s.max_rate);
    if (s.now >= s.cfg.duration) {
      s.done = true;
      return std::nullopt;
    }
    s.advance_burst_chain(s.now);
    if (s.time_rng.uniform01() * s.max_rate <= s.rate_at(s.now)) break;
  }
  Arrival a;
  a.time = s.now;
  a.job = draw_mix_job(s.cfg.mix, s.mix_rng);
  const std::size_t user = s.user_rng.zipf(s.cfg.users, kUserSkew);
  a.job.tenant = TenantId(user);
  a.job.job_id = strf("%zu", ++s.yielded);
  a.job.name += strf("@u%zu#%06zu", user, s.yielded);
  return a;
}

std::size_t ProductionTraceGenerator::jobs_yielded() const {
  return impl_->yielded;
}

}  // namespace mrs::workload
