// SWIM/Facebook-style synthetic production trace generator.
//
// Production MapReduce arrival streams are far burstier than a homogeneous
// Poisson abstraction: intensity follows a diurnal cycle, bursts arrive in
// episodes, job sizes are heavy-tailed (many small jobs, a few huge ones),
// and load concentrates on a few heavy users. This generator reproduces
// those features on top of the Table II catalog — a non-homogeneous
// Poisson process (diurnal sinusoid modulated by a 2-state burst chain,
// sampled by thinning) drives the arrival clock, the shared catalog mix
// sampler (Zipf size rank x mean-1 lognormal jitter) draws heavy-tailed
// job sizes, and a Zipf draw over synthetic users maps each job to a
// tenant, so per-tenant replay analysis works out of the box.
//
// The generator is itself an ArrivalSource: it can be streamed straight
// into the replay driver or drained to a trace CSV via
// write_arrival_trace, and holds O(1) state either way. Determinism: the
// stream depends only on (config, rng), drawn from dedicated children
// ("gen-times", "gen-burst", "gen-mix", "gen-users").
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/workload/arrivals.hpp"

namespace mrs::workload {

struct TraceGenConfig {
  TraceGenConfig() {
    // Production-like defaults: strong size heavy tail (SWIM-style) on
    // top of the catalog's ascending-size batches.
    mix.size_skew = 1.5;
    mix.size_jitter_sigma = 1.0;
  }

  /// Trace horizon: no arrivals at or after this time.
  Seconds duration = 24.0 * 3600.0;
  /// Time-averaged arrival rate in jobs/hour (the diurnal and burst
  /// modulation are normalised so the long-run mean matches this).
  double mean_rate_per_hour = 600.0;
  /// Diurnal swing as a fraction of the mean rate, in [0, 1): intensity
  /// follows 1 + amplitude * sin(2*pi*t/period).
  double diurnal_amplitude = 0.6;
  Seconds diurnal_period = 24.0 * 3600.0;
  /// 2-state burst chain layered on the diurnal cycle: episodes at
  /// `burst_rate_multiplier` x the instantaneous rate, with exponential
  /// sojourns. multiplier 1 (or calm sojourn >> duration) disables it.
  double burst_rate_multiplier = 3.0;
  Seconds mean_calm_sojourn = 1800.0;
  Seconds mean_burst_sojourn = 300.0;
  /// Synthetic user population; each job's user is drawn Zipf(1.2)
  /// (user 0 heaviest) and mapped to TenantId(user).
  std::size_t users = 8;
  /// Job-mix sampler over the Table II catalog (see JobMixConfig). The
  /// constructor pre-sets the heavy-tail knobs.
  JobMixConfig mix;
};

/// Pull-based generator: each next() draws the next arrival by thinning.
/// Yields time-sorted arrivals with contiguous job ids from 1 and names
/// suffixed "@u<user>#<seq>".
class ProductionTraceGenerator final : public ArrivalSource {
 public:
  ProductionTraceGenerator(const TraceGenConfig& cfg, const Rng& rng);
  ~ProductionTraceGenerator() override;
  ProductionTraceGenerator(const ProductionTraceGenerator&) = delete;
  ProductionTraceGenerator& operator=(const ProductionTraceGenerator&) =
      delete;

  [[nodiscard]] std::optional<Arrival> next() override;
  /// Number of arrivals yielded so far (== last job id handed out).
  [[nodiscard]] std::size_t jobs_yielded() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrs::workload
