// Saturation sweep: offered load vs goodput and response-time percentiles
// for PNA against the Fair and Coupling baselines, under an open-loop
// Poisson job stream drawn from the Table II mix.
//
// Each (scheduler, rate) cell is one streaming run with a shared seed, so
// every scheduler faces the byte-identical arrival sequence at a given
// rate. Below the knee goodput tracks the offered rate and response times
// stay flat; past it the backlog grows for the whole measurement window
// and the percentiles blow up — the per-scheduler knee is the capacity
// number a closed batch (makespan) experiment cannot measure.
//
// Output: bench_out/saturation_sweep.csv + a stdout table per scheduler.
//
// PNATS_NAIVE=1 forces the naive full-scan scheduler path
// (ExperimentConfig::naive_scheduler_path) so the incremental-scoring
// speedup can be measured as the ratio of the reported wall times.
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"

namespace {

using namespace mrs;

// A 12-node cluster with 5%-scale catalog jobs keeps one cell in the
// seconds range while preserving the mix shape (many small jobs, a heavy
// tail of big ones). The rate grid brackets the knee (~550-650 jobs/h for
// every scheduler at this scale).
constexpr double kJobScale = 0.05;
constexpr std::size_t kNodes = 12;
constexpr double kRates[] = {150.0, 300.0, 450.0, 600.0, 750.0, 900.0};
constexpr Seconds kDuration = 600.0;
constexpr Seconds kWarmup = 100.0;

bool naive_path() {
  const char* env = std::getenv("PNATS_NAIVE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

driver::StreamConfig sweep_config(driver::SchedulerKind sched, double rate) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(workload::table2_batch(
                                      mapreduce::JobKind::kWordcount),
                                  sched, bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.base.naive_scheduler_path = naive_path();
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
  bench::print_header("Saturation sweep",
                      "open-loop Poisson stream: offered load vs goodput "
                      "and response-time percentiles per scheduler");

  std::vector<driver::StreamConfig> configs;
  for (auto sched : bench::schedulers()) {
    for (double rate : kRates) configs.push_back(sweep_config(sched, rate));
  }

  const auto results = driver::run_stream_experiments(configs);

  CsvWriter csv("bench_out/saturation_sweep.csv",
                {"scheduler", "rate_per_hour", "offered_jobs_per_hour",
                 "goodput_jobs_per_hour", "response_p50_s", "response_p95_s",
                 "response_p99_s", "response_mean_s", "queueing_p50_s",
                 "queueing_p95_s", "queueing_p99_s", "mean_jobs_in_system",
                 "map_slot_utilization", "reduce_slot_utilization",
                 "drained"});

  std::size_t i = 0;
  for (auto sched : bench::schedulers()) {
    std::printf("\n%-13s %9s %9s %8s %8s %8s %8s %7s\n",
                driver::to_string(sched), "offered/h", "goodput/h", "p50",
                "p95", "p99", "queue50", "maputil");
    for (double rate : kRates) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      std::printf("  rate %5.0f  %9.1f %9.1f %7.1fs %7.1fs %7.1fs %7.1fs "
                  "%6.1f%%%s\n",
                  rate, ss.offered_jobs_per_hour,
                  ss.throughput_jobs_per_hour, ss.response_time.p50,
                  ss.response_time.p95, ss.response_time.p99,
                  ss.queueing_delay.p50, 100.0 * ss.map_slot_utilization,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({driver::to_string(sched), strf("%.6g", rate),
               strf("%.6g", ss.offered_jobs_per_hour),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p95),
               strf("%.6g", ss.response_time.p99),
               strf("%.6g", ss.response_time.mean),
               strf("%.6g", ss.queueing_delay.p50),
               strf("%.6g", ss.queueing_delay.p95),
               strf("%.6g", ss.queueing_delay.p99),
               strf("%.6g", ss.mean_jobs_in_system),
               strf("%.6g", ss.map_slot_utilization),
               strf("%.6g", ss.reduce_slot_utilization),
               r.run.completed ? "1" : "0"});
    }
  }
  // Scheduling-path wall time across the whole sweep: run with and without
  // PNATS_NAIVE=1 to get the before/after numbers in docs/perf.md.
  std::uint64_t run_wall_ns = 0, score_wall_ns = 0, score_calls = 0;
  for (const auto& r : results) {
    for (const auto& t : r.run.telemetry.timers) {
      if (t.name == "driver.run_wall") run_wall_ns += t.total_ns;
      if (t.name == "pna.score_wall") {
        score_wall_ns += t.total_ns;
        score_calls += t.count;
      }
    }
  }
  std::printf("\n[%s path] driver.run_wall total %.3f s; pna.score_wall "
              "total %.3f ms over %llu scoring scans\n",
              naive_path() ? "naive" : "incremental", run_wall_ns * 1e-9,
              score_wall_ns * 1e-6,
              static_cast<unsigned long long>(score_calls));
  std::printf("wrote bench_out/saturation_sweep.csv (%zu rows)\n",
              results.size());
  return 0;
}
