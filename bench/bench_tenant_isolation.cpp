// Tenant isolation: what a bursty neighbour costs a steady tenant, and
// what per-tenant admission quotas buy back.
//
// A steady Poisson tenant (300 jobs/h, fair-share weight 4) shares the
// 12-node, 5%-scale cluster with a bursty MMPP tenant offering 900 jobs/h
// — 1.5x the saturation knee located by bench_saturation_sweep — at
// weight 1. Each scheduler variant runs three cells on the same seed:
//
//   solo     the steady tenant alone (its undisturbed baseline; the
//            per-tenant RNG streams make its arrivals byte-identical in
//            every cell)
//   shared   both tenants, no quotas (always-admit)
//   quota    both tenants under admission quotas {4, 1} over a backlog
//            budget of 24 jobs — the bursty tenant may hold at most
//            24 * 1/5 jobs in system, the steady one 24 * 4/5
//
// The headline number is the steady tenant's p99 response-time
// degradation (shared / solo); quotas should pull it back toward 1 by
// deferring/rejecting the neighbour's overload instead of letting it
// monopolize the backlog.
//
// Scheduler variants: Fair with the plain kFair job order, Fair with
// kWeightedFair (the weights above), and PNA (placement-probability
// scheduling, kFair order).
//
// PNATS_QUICK=1 shortens the horizon and writes
// bench_out/tenant_isolation_quick.csv (CI smoke); the full run writes
// bench_out/tenant_isolation.csv.
#include <cstdlib>
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
constexpr double kSteadyRate = 300.0;  ///< jobs/h, well under the knee
constexpr double kBurstyRate = 900.0;  ///< 1.5x the ~600 jobs/h knee
constexpr double kSteadyWeight = 4.0;
constexpr double kBurstyWeight = 1.0;
constexpr double kBacklogBudget = 24.0;  ///< quota budget (jobs in system)

struct Variant {
  const char* label;
  driver::SchedulerKind sched;
  mapreduce::JobOrder order;
};

constexpr Variant kVariants[] = {
    {"fair", driver::SchedulerKind::kFair, mapreduce::JobOrder::kFair},
    {"weighted-fair", driver::SchedulerKind::kFair,
     mapreduce::JobOrder::kWeightedFair},
    {"pna", driver::SchedulerKind::kPna, mapreduce::JobOrder::kFair},
};

enum class Cell { kSolo, kShared, kQuota };

constexpr Cell kCells[] = {Cell::kSolo, Cell::kShared, Cell::kQuota};

constexpr const char* cell_name(Cell c) {
  switch (c) {
    case Cell::kSolo: return "solo";
    case Cell::kShared: return "shared";
    case Cell::kQuota: return "quota";
  }
  return "?";
}

driver::StreamConfig cell_config(const Variant& v, Cell cell,
                                 Seconds duration, Seconds warmup) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(workload::table2_batch(
                                      mapreduce::JobKind::kWordcount),
                                  v.sched, bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.base.fair.job_order = v.order;
  cfg.arrivals.duration = duration;
  cfg.warmup = warmup;

  workload::JobMixConfig mix;
  mix.map_count_scale = kJobScale;
  mix.reduce_count_scale = kJobScale;

  workload::TenantConfig steady;
  steady.name = "steady";
  steady.rate_per_hour = kSteadyRate;
  steady.weight = kSteadyWeight;
  steady.mix = mix;
  cfg.arrivals.tenants.push_back(steady);

  if (cell != Cell::kSolo) {
    workload::TenantConfig bursty;
    bursty.name = "bursty";
    bursty.process = workload::ArrivalProcess::kMmpp;
    bursty.rate_per_hour = kBurstyRate;
    bursty.weight = kBurstyWeight;
    bursty.mix = mix;
    cfg.arrivals.tenants.push_back(bursty);
  }
  if (cell == Cell::kQuota) {
    cfg.base.admission.max_jobs_in_system = kBacklogBudget;
    cfg.base.admission.tenant_quota_weights = {kSteadyWeight, kBurstyWeight};
  }
  return cfg;
}

}  // namespace

int main() {
  const bool quick = std::getenv("PNATS_QUICK") != nullptr;
  const Seconds duration = quick ? 300.0 : 600.0;
  const Seconds warmup = quick ? 50.0 : 100.0;
  bench::print_header("Tenant isolation",
                      "steady tenant's p99 under a bursty neighbour at "
                      "1.5x the knee, with and without admission quotas");

  std::vector<driver::StreamConfig> configs;
  for (const auto& v : kVariants) {
    for (Cell cell : kCells) {
      configs.push_back(cell_config(v, cell, duration, warmup));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  CsvWriter csv(quick ? "bench_out/tenant_isolation_quick.csv"
                      : "bench_out/tenant_isolation.csv",
                {"variant", "cell", "quota",
                 "steady_goodput_jobs_per_hour", "steady_response_p50_s",
                 "steady_response_p99_s", "steady_p99_degradation",
                 "steady_rejected", "steady_deferred",
                 "bursty_goodput_jobs_per_hour", "bursty_response_p99_s",
                 "bursty_rejected", "bursty_deferred",
                 "mean_jobs_in_system", "drained"});

  std::size_t i = 0;
  for (const auto& v : kVariants) {
    std::printf("\n%-13s %-7s %9s %8s %8s %7s %9s %9s %7s\n", v.label,
                "cell", "steady/h", "p50", "p99", "x-solo", "bursty/h",
                "b.rej", "L");
    double solo_p99 = 0.0;
    for (Cell cell : kCells) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto* steady = ss.tenant(TenantId(0));
      const auto* bursty = ss.tenant(TenantId(1));
      if (steady == nullptr) continue;  // nothing measured: skip the row
      if (cell == Cell::kSolo) solo_p99 = steady->response_time.p99;
      const double degradation =
          solo_p99 > 0.0 ? steady->response_time.p99 / solo_p99 : 0.0;
      std::printf("%-13s %-7s %9.1f %7.1fs %7.1fs %6.2fx %9.1f %9zu "
                  "%6.1f%s\n",
                  "", cell_name(cell), steady->throughput_jobs_per_hour,
                  steady->response_time.p50, steady->response_time.p99,
                  degradation,
                  bursty != nullptr ? bursty->throughput_jobs_per_hour : 0.0,
                  bursty != nullptr ? bursty->jobs_rejected : 0,
                  ss.mean_jobs_in_system,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({v.label, cell_name(cell),
               cell == Cell::kQuota ? "1" : "0",
               strf("%.6g", steady->throughput_jobs_per_hour),
               strf("%.6g", steady->response_time.p50),
               strf("%.6g", steady->response_time.p99),
               strf("%.6g", degradation),
               strf("%zu", steady->jobs_rejected),
               strf("%zu", steady->jobs_deferred),
               strf("%.6g",
                    bursty != nullptr ? bursty->throughput_jobs_per_hour
                                      : 0.0),
               strf("%.6g",
                    bursty != nullptr ? bursty->response_time.p99 : 0.0),
               strf("%zu", bursty != nullptr ? bursty->jobs_rejected : 0),
               strf("%zu", bursty != nullptr ? bursty->jobs_deferred : 0),
               strf("%.6g", ss.mean_jobs_in_system),
               r.run.completed ? "1" : "0"});
    }
  }
  std::printf("\nwrote bench_out/tenant_isolation%s.csv (%zu rows)\n",
              quick ? "_quick" : "", results.size());
  return 0;
}
