// Degraded-network bench (ROADMAP "reconfigurable and degraded
// networks"): how much of the PNA advantage survives when the network
// itself misbehaves. An open-loop Poisson stream at 1.2x the knee rate
// (~600 jobs/h at this scale, see bench_saturation_sweep) runs under four
// chaos scenarios — clean, link/switch cuts, background-traffic surges,
// and both — for PNA on static hop distances, PNA on condition-aware
// per-link distances, min-cost and FIFO. Every scheduler faces the
// byte-identical arrival sequence and the byte-identical fault schedule
// (the injector draws on labeled sub-streams the schedulers never touch).
//
// Reported per cell: goodput, response p50/p99, the stall-retry ledger
// (transfer stall timeouts and retries), the chaos event counts, and the
// critical-path blame shares — under cuts the blame mass must shift from
// queue/compute toward network and retry, and the condition-aware PNA
// should shed some of that shift by routing around degraded paths.
//
// Output: bench_out/degraded_network.csv + a stdout table per scenario.
// PNATS_QUICK=1 shortens the horizon for CI smoke runs.
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/common/table.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "mrs/trace/critical_path.hpp"

namespace {

using namespace mrs;

constexpr double kJobScale = 0.05;
constexpr std::size_t kNodes = 12;
constexpr std::size_t kRacks = 4;  // rack uplinks give faults somewhere to bite
constexpr double kRate = 720.0;    // 1.2x the ~600 jobs/h knee at this scale

struct SchedulerCase {
  const char* name;
  driver::SchedulerKind kind;
  driver::DistanceMode distance;
};

const std::vector<SchedulerCase>& scheduler_cases() {
  static const std::vector<SchedulerCase> kCases = {
      {"pna-hop", driver::SchedulerKind::kPna, driver::DistanceMode::kHops},
      {"pna-cond", driver::SchedulerKind::kPna,
       driver::DistanceMode::kWeightedPerLink},
      {"mincost", driver::SchedulerKind::kMinCost,
       driver::DistanceMode::kHops},
      {"fifo", driver::SchedulerKind::kFifo, driver::DistanceMode::kHops},
  };
  return kCases;
}

struct Scenario {
  const char* name;
  bool cuts;
  bool surges;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"clean", false, false},
      {"cuts", true, false},
      {"surges", false, true},
      {"cuts+surges", true, true},
  };
  return kScenarios;
}

driver::StreamConfig cell_config(const SchedulerCase& sc,
                                 const Scenario& scenario, Seconds duration) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(
      workload::table2_batch(mapreduce::JobKind::kWordcount), sc.kind,
      bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.base.racks = kRacks;
  cfg.base.distance_mode = sc.distance;
  cfg.base.enable_tracing = true;  // blame shares need the span trees
  cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
  cfg.arrivals.rate_per_hour = kRate;
  cfg.arrivals.duration = duration;
  cfg.arrivals.mix.map_count_scale = kJobScale;
  cfg.arrivals.mix.reduce_count_scale = kJobScale;
  cfg.warmup = duration / 6.0;
  if (scenario.cuts) {
    cfg.base.net_faults.link_mtbf = 60.0;
    cfg.base.net_faults.link_repair_time = 45.0;
    cfg.base.net_faults.switch_mtbf = 400.0;
    cfg.base.net_faults.switch_repair_time = 90.0;
    cfg.base.net_faults.repair_jitter = 0.3;
  }
  if (scenario.surges) {
    cfg.base.net_faults.surge_mtbf = 150.0;
    cfg.base.net_faults.surge_duration = 90.0;
    cfg.base.net_faults.surge_utilization = 0.6;
  }
  if (scenario.cuts || scenario.surges) {
    cfg.base.engine.stall_timeout = 30.0;
    cfg.base.engine.stall_backoff_base = 5.0;
    cfg.base.engine.stall_backoff_cap = 60.0;
  }
  return cfg;
}

struct BlameShares {
  double queue = 0.0, network = 0.0, compute = 0.0, retry = 0.0;
};

BlameShares blame_shares(const driver::ExperimentResult& r) {
  BlameShares s;
  double response = 0.0;
  for (const auto& b : r.job_blames) {
    s.queue += b.queue();
    s.network += b.network();
    s.compute += b.compute();
    s.retry += b.retry();
    response += b.response;
  }
  if (response > 0.0) {
    s.queue /= response;
    s.network /= response;
    s.compute /= response;
    s.retry /= response;
  }
  return s;
}

}  // namespace

int main() {
  bench::print_header("Degraded networks",
                      "PNA (hop / condition-aware) vs min-cost and FIFO "
                      "under link cuts, switch faults and traffic surges at "
                      "1.2x the knee rate");

  const bool quick = std::getenv("PNATS_QUICK") != nullptr;
  const Seconds duration = quick ? 240.0 : 600.0;

  std::vector<driver::StreamConfig> configs;
  for (const auto& scenario : scenarios()) {
    for (const auto& sc : scheduler_cases()) {
      configs.push_back(cell_config(sc, scenario, duration));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  CsvWriter csv(quick ? "bench_out/degraded_network_quick.csv"
                      : "bench_out/degraded_network.csv",
                {"scenario", "scheduler", "offered_jobs_per_hour",
                 "goodput_jobs_per_hour", "response_p50_s", "response_p99_s",
                 "stall_timeouts", "transfer_retries", "links_cut",
                 "switch_events", "surge_episodes", "blame_queue_share",
                 "blame_network_share", "blame_compute_share",
                 "blame_retry_share", "drained"});

  std::size_t i = 0;
  for (const auto& scenario : scenarios()) {
    AsciiTable table({"scheduler", "goodput/h", "p50 (s)", "p99 (s)",
                      "stalls", "retries", "net blame", "retry blame"});
    for (std::size_t c = 1; c <= 7; ++c) table.set_right_aligned(c);
    for (const auto& sc : scheduler_cases()) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto& tel = r.run.telemetry;
      const BlameShares shares = blame_shares(r.run);
      table.add_row(
          {sc.name, strf("%.1f", ss.throughput_jobs_per_hour),
           strf("%.1f", ss.response_time.p50),
           strf("%.1f", ss.response_time.p99),
           strf("%llu", static_cast<unsigned long long>(
                            tel.counter("engine.transfer.stall_timeouts"))),
           strf("%llu", static_cast<unsigned long long>(
                            tel.counter("engine.transfer.retries"))),
           strf("%.1f%%", 100.0 * shares.network),
           strf("%.1f%%", 100.0 * shares.retry)});
      csv.row({scenario.name, sc.name, strf("%.6g", ss.offered_jobs_per_hour),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p99),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("engine.transfer.stall_timeouts"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("engine.transfer.retries"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.fault.links_cut"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.fault.switch_events"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.surge.episodes"))),
               strf("%.6g", shares.queue), strf("%.6g", shares.network),
               strf("%.6g", shares.compute), strf("%.6g", shares.retry),
               r.run.completed ? "1" : "0"});
    }
    std::printf("\n[%s]\n%s", scenario.name, table.render().c_str());
  }
  std::printf(
      "\nUnder cuts the blame mass shifts from queue/compute toward network\n"
      "and retry; the condition-aware PNA sheds part of that shift by\n"
      "placing around degraded paths, while FIFO absorbs it in p99.\n");
  std::printf("wrote %s (%zu rows)\n", csv.path().c_str(), results.size());
  return 0;
}
