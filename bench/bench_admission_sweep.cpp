// Admission sweep: goodput vs rejection rate for each admission policy at
// and past the saturation knee, per scheduler, with and without failure
// injection.
//
// The saturation sweep (bench_saturation_sweep) locates the knee at
// ~600-650 jobs/h for this 12-node, 5%-scale configuration; this bench
// offers the cluster the knee rate and 1.5x the knee rate and shows what
// each control policy buys there. Below the knee every policy admits
// everything and the columns coincide; past it, always-admit lets the
// backlog (and response percentiles) diverge while the threshold policies
// trade a slice of the offered load for goodput and latency on the jobs
// they do admit — the classic goodput-vs-rejection curve.
//
// Each (scheduler, rate, policy, mtbf) cell is one streaming run with a
// shared seed: within a (scheduler, rate, mtbf) group the arrival sequence
// is byte-identical, so the policies are exactly paired.
//
// Output: bench_out/admission_sweep.csv + a stdout table per scheduler.
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"

namespace {

using namespace mrs;

constexpr double kJobScale = 0.05;
constexpr std::size_t kNodes = 12;
/// Knee rate and 1.5x the knee (past saturation) per the saturation sweep.
constexpr double kRates[] = {600.0, 900.0};
constexpr Seconds kDuration = 600.0;
constexpr Seconds kWarmup = 100.0;
constexpr Seconds kMtbfs[] = {0.0, 400.0};

constexpr control::AdmissionPolicyKind kPolicies[] = {
    control::AdmissionPolicyKind::kAlwaysAdmit,
    control::AdmissionPolicyKind::kStaticThreshold,
    control::AdmissionPolicyKind::kTokenBucket,
    control::AdmissionPolicyKind::kAdaptive,
};

driver::StreamConfig sweep_config(driver::SchedulerKind sched, double rate,
                                  control::AdmissionPolicyKind policy,
                                  Seconds mtbf) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(workload::table2_batch(
                                      mapreduce::JobKind::kWordcount),
                                  sched, bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.base.failures.cluster_mtbf = mtbf;
  cfg.base.admission.policy = policy;
  // Backlog limit between the sub-knee steady-state L (~10) and the
  // always-admit overload peak (~37): tight enough to shed load at 1.5x,
  // loose enough not to starve slots (a limit near the sub-knee L rejects
  // so aggressively that goodput drops below always-admit). The token
  // bucket refills at the knee rate; the adaptive max sits below the
  // overload peak so the AIMD limit is the binding constraint.
  cfg.base.admission.max_jobs_in_system = 24.0;
  cfg.base.admission.bucket_rate_per_hour = 650.0;
  cfg.base.admission.adaptive_target_delay = 60.0;
  cfg.base.admission.adaptive_max_limit = 32.0;
  cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
  cfg.arrivals.rate_per_hour = rate;
  cfg.arrivals.duration = kDuration;
  cfg.arrivals.mix.map_count_scale = kJobScale;
  cfg.arrivals.mix.reduce_count_scale = kJobScale;
  cfg.warmup = kWarmup;
  return cfg;
}

}  // namespace

int main() {
  bench::print_header("Admission sweep",
                      "goodput vs rejection per admission policy at and "
                      "past the saturation knee, with/without failures");

  std::vector<driver::StreamConfig> configs;
  for (auto sched : bench::schedulers()) {
    for (Seconds mtbf : kMtbfs) {
      for (double rate : kRates) {
        for (auto policy : kPolicies) {
          configs.push_back(sweep_config(sched, rate, policy, mtbf));
        }
      }
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  CsvWriter csv("bench_out/admission_sweep.csv",
                {"scheduler", "policy", "mtbf_s", "rate_per_hour",
                 "offered_jobs_per_hour", "goodput_jobs_per_hour",
                 "rejection_rate", "jobs_rejected", "jobs_deferred",
                 "jobs_aborted", "deferral_p50_s", "deferral_p99_s",
                 "response_p50_s", "response_p95_s", "response_p99_s",
                 "mean_jobs_in_system", "drained"});

  std::size_t i = 0;
  for (auto sched : bench::schedulers()) {
    for (Seconds mtbf : kMtbfs) {
      std::printf("\n%-13s (mtbf=%s)\n  %-17s %5s %9s %9s %7s %8s %8s %7s\n",
                  driver::to_string(sched),
                  mtbf > 0.0 ? strf("%.0fs", mtbf).c_str() : "off", "policy",
                  "rate", "offered/h", "goodput/h", "rej%", "p50", "p99",
                  "L");
      for (double rate : kRates) {
        for (auto policy : kPolicies) {
          const auto& r = results[i++];
          const auto& ss = r.steady;
          std::printf("  %-17s %5.0f %9.1f %9.1f %6.1f%% %7.1fs %7.1fs "
                      "%6.1f%s\n",
                      control::to_string(policy), rate,
                      ss.offered_jobs_per_hour, ss.throughput_jobs_per_hour,
                      100.0 * ss.rejection_rate, ss.response_time.p50,
                      ss.response_time.p99, ss.mean_jobs_in_system,
                      r.run.completed ? "" : "  [did not drain]");
          csv.row({driver::to_string(sched), control::to_string(policy),
                   strf("%.6g", mtbf), strf("%.6g", rate),
                   strf("%.6g", ss.offered_jobs_per_hour),
                   strf("%.6g", ss.throughput_jobs_per_hour),
                   strf("%.6g", ss.rejection_rate),
                   strf("%zu", ss.jobs_rejected),
                   strf("%zu", ss.jobs_deferred),
                   strf("%zu", ss.jobs_aborted),
                   strf("%.6g", ss.deferral_delay.p50),
                   strf("%.6g", ss.deferral_delay.p99),
                   strf("%.6g", ss.response_time.p50),
                   strf("%.6g", ss.response_time.p95),
                   strf("%.6g", ss.response_time.p99),
                   strf("%.6g", ss.mean_jobs_in_system),
                   r.run.completed ? "1" : "0"});
        }
      }
    }
  }
  std::printf("\nwrote bench_out/admission_sweep.csv (%zu rows)\n",
              results.size());
  return 0;
}
