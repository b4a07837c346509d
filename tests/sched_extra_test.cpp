// Tests for the related-work schedulers: LARTS [4] and the Quincy-inspired
// min-regret matcher [20].
#include <gtest/gtest.h>

#include "mrs/driver/experiment.hpp"
#include "mrs/sched/larts.hpp"
#include "mrs/sched/mincost.hpp"
#include "test_harness.hpp"

namespace mrs::sched {
namespace {

using mapreduce::JobRun;
using mapreduce::Locality;
using mapreduce::ReducePhase;
using mrs::testing::MiniCluster;

TEST(Larts, CompletesBatch) {
  MiniCluster h(4);
  h.submit_job(10, 4);
  h.submit_job(8, 6);
  LartsScheduler larts({});
  h.run(larts);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(Larts, ReducesPreferDataRichNodes) {
  MiniCluster h(6);
  JobRun& job = h.submit_job(18, 4);
  LartsScheduler larts({});
  h.run(larts);
  // Every reduce landed on a node that hosted at least one of the job's
  // completed maps at assignment time (the locality definition), unless it
  // exhausted its postpone budget.
  std::size_t local = 0;
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    if (job.reduce_state(f).locality == Locality::kNodeLocal) ++local;
  }
  EXPECT_GE(local, job.reduce_count() / 2);
}

TEST(Larts, PostponeBounded) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(8, 6);
  LartsConfig cfg;
  cfg.share_tolerance = 1.1;  // nothing short of the maximum is enough
  cfg.max_postpones = 2;
  LartsScheduler larts(cfg);
  h.run(larts);
  EXPECT_TRUE(job.complete());
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    EXPECT_LE(job.reduce_state(f).postpone_count, 2u);
  }
}

TEST(MinCost, CompletesBatch) {
  MiniCluster h(4);
  h.submit_job(10, 4);
  h.submit_job(8, 6);
  MinCostScheduler mincost;
  h.run(mincost);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(MinCost, DeterministicNoRng) {
  auto run_once = [] {
    MiniCluster h(5);
    h.submit_job(15, 5);
    MinCostScheduler mincost;
    h.run(mincost);
    std::vector<std::size_t> nodes;
    for (const auto& t : h.engine.task_records()) {
      nodes.push_back(t.node.value());
    }
    return nodes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MinCost, PrefersLocalTasks) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(16, 2);
  MinCostScheduler mincost;
  h.run(mincost);
  std::size_t local = 0;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    if (job.map_state(j).locality == Locality::kNodeLocal) ++local;
  }
  EXPECT_GT(local, job.map_count() / 2);
}

TEST(DriverIntegration, NewSchedulerKindsRun) {
  std::vector<workload::JobDescription> jobs = {
      {"t", "Grep_tiny", mapreduce::JobKind::kGrep, 1, 10, 4}};
  for (auto kind :
       {driver::SchedulerKind::kLarts, driver::SchedulerKind::kMinCost}) {
    auto cfg = driver::paper_config(jobs, kind, 3);
    cfg.nodes = 8;
    const auto r = driver::run_experiment(cfg);
    EXPECT_TRUE(r.completed) << driver::to_string(kind);
    EXPECT_EQ(r.scheduler_name, driver::to_string(kind));
  }
}

}  // namespace
}  // namespace mrs::sched
