// Heterogeneous-cluster sweep: what compute-awareness buys on a
// fast-rack / slow-rack cluster.
//
// A 12-node, 2-rack cluster is split by rack into a "fast" class (CPU
// speed s) and a "slow" class (CPU speed 1/s) with identical slot counts
// and NICs — racks bought in different generations. The skew axis sweeps
// s in {1, 2, 4}; s = 1 is the homogeneous control where every variant
// should agree. Each cell runs the same open-loop Poisson stream (per-job
// streams are labeled, so arrivals are byte-identical across variants):
//
//   pna-net      PNA, cost_mix 0   — the paper's network-only cost
//   pna-mix      PNA, cost_mix 0.5 — blended network + compute seconds
//   pna-compute  PNA, cost_mix 1   — compute seconds only
//   unrelated    greedy min-completion-time on unrelated machines
//                (Fotakis et al. line; deterministic, compute-aware)
//
// The headline numbers are steady-state p99 response time and the share
// of map work the fast rack ends up executing: network-only PNA keeps
// following data locality and strands half the work on the slow rack,
// while the compute-aware variants shift it to the fast rack at the cost
// of remote reads.
//
// PNATS_QUICK=1 shortens the horizon and writes
// bench_out/hetero_sweep_quick.csv; the full run writes
// bench_out/hetero_sweep.csv (checked in, analyzed in EXPERIMENTS.md).
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "mrs/metrics/summary.hpp"

namespace {

using namespace mrs;

constexpr double kJobScale = 0.05;
constexpr std::size_t kNodes = 12;
constexpr std::size_t kRacks = 2;
constexpr double kRate = 360.0;  ///< jobs/h, under the homogeneous knee

constexpr double kSkews[] = {1.0, 2.0, 4.0};

struct Variant {
  const char* label;
  driver::SchedulerKind sched;
  double cost_mix;
};

constexpr Variant kVariants[] = {
    {"pna-net", driver::SchedulerKind::kPna, 0.0},
    {"pna-mix", driver::SchedulerKind::kPna, 0.5},
    {"pna-compute", driver::SchedulerKind::kPna, 1.0},
    {"unrelated", driver::SchedulerKind::kUnrelated, 0.0},
};

hetero::HeteroConfig fast_slow_racks(double skew) {
  hetero::NodeClass fast;
  fast.name = "fast";
  fast.cpu_speed = skew;
  hetero::NodeClass slow;
  slow.name = "slow";
  slow.cpu_speed = 1.0 / skew;
  hetero::HeteroConfig cfg;
  cfg.classes = {fast, slow};
  cfg.assign = hetero::AssignMode::kByRack;
  return cfg;
}

driver::StreamConfig cell_config(const Variant& v, double skew,
                                 Seconds duration, Seconds warmup) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(workload::table2_batch(
                                      mapreduce::JobKind::kWordcount),
                                  v.sched, bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.base.racks = kRacks;
  cfg.base.hetero = fast_slow_racks(skew);
  cfg.base.pna.cost_mix = v.cost_mix;
  cfg.arrivals.rate_per_hour = kRate;
  cfg.arrivals.duration = duration;
  cfg.arrivals.mix.map_count_scale = kJobScale;
  cfg.arrivals.mix.reduce_count_scale = kJobScale;
  cfg.warmup = warmup;
  return cfg;
}

}  // namespace

int main() {
  const bool quick = std::getenv("PNATS_QUICK") != nullptr;
  const Seconds duration = quick ? 300.0 : 900.0;
  const Seconds warmup = quick ? 50.0 : 150.0;
  bench::print_header("Heterogeneity sweep",
                      "fast-rack/slow-rack cluster: network-only PNA vs "
                      "combined-cost PNA vs the unrelated-machines greedy");

  std::vector<driver::StreamConfig> configs;
  for (const double skew : kSkews) {
    for (const auto& v : kVariants) {
      configs.push_back(cell_config(v, skew, duration, warmup));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  CsvWriter csv(quick ? "bench_out/hetero_sweep_quick.csv"
                      : "bench_out/hetero_sweep.csv",
                {"skew", "variant", "cost_mix",
                 "goodput_jobs_per_hour", "response_p50_s",
                 "response_p95_s", "response_p99_s", "mean_jobs_in_system",
                 "map_slot_util", "fast_maps", "slow_maps",
                 "fast_map_share", "node_local_pct", "drained"});

  std::size_t i = 0;
  for (const double skew : kSkews) {
    std::printf("\nskew %.0fx (fast %.2gx, slow %.2gx)\n", skew * skew,
                skew, 1.0 / skew);
    std::printf("%-13s %9s %8s %8s %7s %7s %7s\n", "variant", "goodput/h",
                "p50", "p99", "L", "fast%", "local%");
    for (const auto& v : kVariants) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto fast_maps =
          r.run.telemetry.counter("hetero.class.fast.maps_finished");
      const auto slow_maps =
          r.run.telemetry.counter("hetero.class.slow.maps_finished");
      const double fast_share =
          fast_maps + slow_maps > 0
              ? static_cast<double>(fast_maps) /
                    static_cast<double>(fast_maps + slow_maps)
              : 0.0;
      const auto loc = metrics::locality_summary(
          r.run.task_records, metrics::TaskFilter::kMapsOnly);
      std::printf("%-13s %9.1f %7.1fs %7.1fs %6.2f %6.1f%% %6.1f%%%s\n",
                  v.label, ss.throughput_jobs_per_hour,
                  ss.response_time.p50, ss.response_time.p99,
                  ss.mean_jobs_in_system, 100.0 * fast_share,
                  loc.node_local_pct,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({strf("%.6g", skew), v.label, strf("%.6g", v.cost_mix),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p95),
               strf("%.6g", ss.response_time.p99),
               strf("%.6g", ss.mean_jobs_in_system),
               strf("%.6g", ss.map_slot_utilization),
               strf("%llu", static_cast<unsigned long long>(fast_maps)),
               strf("%llu", static_cast<unsigned long long>(slow_maps)),
               strf("%.6g", fast_share),
               strf("%.6g", loc.node_local_pct),
               r.run.completed ? "1" : "0"});
    }
  }
  std::printf("\nwrote bench_out/hetero_sweep%s.csv (%zu rows)\n",
              quick ? "_quick" : "", results.size());
  return 0;
}
