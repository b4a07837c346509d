// Edge-case and job-policy tests: degenerate cluster/job shapes,
// zero-output jobs, weighted-fair ordering, long-running robustness.
#include <gtest/gtest.h>

#include "mrs/core/pna_scheduler.hpp"
#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/sched/fifo.hpp"
#include "test_harness.hpp"

namespace mrs::mapreduce {
namespace {

using mrs::testing::MiniCluster;

TEST(EngineEdge, SingleNodeCluster) {
  MiniCluster h(1);
  JobRun& job = h.submit_job(5, 2, 32.0 * units::kMiB, 1.0,
                             /*replication=*/1);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
  // Everything node-local and zero network bytes.
  for (const auto& t : h.engine.task_records()) {
    EXPECT_DOUBLE_EQ(t.network_bytes, 0.0);
  }
}

TEST(EngineEdge, OneMapOneReduce) {
  MiniCluster h(3);
  JobRun& job = h.submit_job(1, 1);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
  EXPECT_EQ(h.engine.task_records().size(), 2u);
}

TEST(EngineEdge, ZeroSelectivityJob) {
  // A map-only-style job: maps emit nothing; reduces must still complete
  // (instantly after all maps finish).
  MiniCluster h(3);
  JobRun& job = h.submit_job(6, 2, 32.0 * units::kMiB, /*selectivity=*/0.0);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    EXPECT_DOUBLE_EQ(job.reduce_state(f).bytes_fetched, 0.0);
    EXPECT_EQ(job.reduce_state(f).fetched_maps, job.map_count());
  }
}

TEST(EngineEdge, MoreReducesThanSlots) {
  // 2 nodes x 2 reduce slots = 4 slots, 12 reduces: waves must drain.
  MiniCluster h(2);
  JobRun& job = h.submit_job(4, 12);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
}

TEST(EngineEdge, ManySmallJobs) {
  MiniCluster h(4);
  for (int i = 0; i < 12; ++i) h.submit_job(2, 1);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(h.engine.job_records().size(), 12u);
}

TEST(EngineEdge, PnaOnSingleNode) {
  MiniCluster h(1);
  JobRun& job = h.submit_job(4, 2, 32.0 * units::kMiB, 1.0, 1);
  core::PnaScheduler pna({}, Rng(1));
  h.run(pna);
  EXPECT_TRUE(job.complete());
}

TEST(EngineEdge, HugeStartupDelay) {
  MiniCluster h(3);
  JobSpec spec;
  spec.name = "slow-start";
  spec.reduce_count = 1;
  spec.task_startup = 60.0;
  spec.selectivity_jitter = 0.0;
  const BlockId b = h.store.add_block(
      32.0 * units::kMiB, h.placer.place(2, dfs::PlacementPolicy::kRandom));
  spec.map_tasks.push_back({b, 32.0 * units::kMiB});
  JobRun& job = h.engine.submit(std::move(spec), Rng(2));
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
  EXPECT_GT(job.finish_time, 120.0);  // two startups in sequence
}

TEST(WeightedFair, HeavierJobGetsMoreConcurrency) {
  MiniCluster h(4);
  JobRun& heavy = h.submit_job(40, 2);
  JobRun& light = h.submit_job(40, 2);
  const_cast<JobSpec&>(heavy.spec()).weight = 4.0;
  const_cast<JobSpec&>(light.spec()).weight = 1.0;

  // Sample concurrency while both have pending maps, under a scheduler
  // that follows weighted-fair ordering.
  struct WeightedFifo final : TaskScheduler {
    double heavy_running_sum = 0.0;
    double light_running_sum = 0.0;
    int samples = 0;
    JobRun* heavy_job = nullptr;
    JobRun* light_job = nullptr;
    const char* name() const override { return "wfifo"; }
    void on_heartbeat(Engine& e, NodeId node) override {
      if (heavy_job->maps_unassigned() > 0 &&
          light_job->maps_unassigned() > 0) {
        heavy_running_sum += double(heavy_job->maps_running());
        light_running_sum += double(light_job->maps_running());
        ++samples;
      }
      TaskScheduler::on_heartbeat(e, node);
    }
    void offer_map(Engine& e, NodeId node) override {
      auto jobs = jobs_for_maps(e, JobOrder::kWeightedFair);
      if (jobs.empty()) return;
      const std::size_t j = jobs.front()->next_any_map();
      if (j < jobs.front()->map_count()) e.assign_map(*jobs.front(), j, node);
    }
    void offer_reduce(Engine& e, NodeId node) override {
      auto rjobs = jobs_for_reduces(e, JobOrder::kWeightedFair);
      if (rjobs.empty()) return;
      const auto un = rjobs.front()->unassigned_reduces();
      if (!un.empty()) e.assign_reduce(*rjobs.front(), un.front(), node);
    }
  } sched;
  sched.heavy_job = &heavy;
  sched.light_job = &light;
  h.run(sched);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  ASSERT_GT(sched.samples, 10);
  // The weight-4 job should run clearly more concurrent maps on average.
  EXPECT_GT(sched.heavy_running_sum, sched.light_running_sum * 1.8);
}

TEST(WeightedFair, EqualWeightsMatchFair) {
  MiniCluster h(3);
  JobRun& a = h.submit_job(6, 1);
  JobRun& b = h.submit_job(6, 1);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.run(0.1);
  a.note_map_assigned();
  const auto fair = jobs_for_maps(h.engine, JobOrder::kFair);
  const auto weighted = jobs_for_maps(h.engine, JobOrder::kWeightedFair);
  ASSERT_EQ(fair.size(), 2u);
  EXPECT_EQ(fair.front(), weighted.front());
  EXPECT_EQ(fair.front(), &b);
}

}  // namespace
}  // namespace mrs::mapreduce
