// Integration tests for the JobTracker engine: full small-cluster runs with
// lifecycle, accounting and conservation invariants.
#include <gtest/gtest.h>

#include <memory>

#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sched/fifo.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::mapreduce {
namespace {

// A minimal self-contained harness around the engine.
struct Harness {
  explicit Harness(std::size_t nodes, cluster::NodeConfig node_cfg = {},
                   EngineConfig engine_cfg = {})
      : topo(net::make_single_rack(nodes, units::Gbps(1))),
        store(nodes),
        placer(&topo, Rng(7)),
        clstr(&topo, node_cfg, Rng(8)),
        network(&sim, &topo),
        distance(topo),
        engine(&sim, &clstr, &store, &network, &distance, engine_cfg) {}

  JobRun& submit_job(std::size_t maps, std::size_t reduces,
                     Bytes block = 64.0 * units::kMiB,
                     double selectivity = 1.0) {
    JobSpec spec;
    spec.name = "job" + std::to_string(counter++);
    spec.reduce_count = reduces;
    spec.map_selectivity = selectivity;
    spec.selectivity_jitter = 0.0;
    spec.map_rate = 32.0 * units::kMiB;
    spec.reduce_rate = 32.0 * units::kMiB;
    spec.task_startup = 0.5;
    for (std::size_t j = 0; j < maps; ++j) {
      const BlockId b = store.add_block(
          block, placer.place(2, dfs::PlacementPolicy::kHdfsDefault));
      spec.map_tasks.push_back({b, block});
    }
    return engine.submit(std::move(spec), Rng(100 + counter));
  }

  void run(TaskScheduler& sched, Seconds max_time = 1e6) {
    engine.set_scheduler(&sched);
    engine.start();
    sim.run(max_time);
  }

  sim::Simulation sim;
  net::Topology topo;
  dfs::BlockStore store;
  dfs::BlockPlacer placer;
  cluster::Cluster clstr;
  sim::NetworkService network;
  net::HopDistanceProvider distance;
  Engine engine;
  int counter = 0;
};

TEST(Engine, SingleJobCompletes) {
  Harness h(4);
  JobRun& job = h.submit_job(6, 3);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_TRUE(job.complete());
  EXPECT_GT(job.finish_time, 0.0);
}

TEST(Engine, RecordsOnePerTask) {
  Harness h(4);
  h.submit_job(6, 3);
  h.submit_job(4, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_EQ(h.engine.task_records().size(), 6u + 3u + 4u + 2u);
  EXPECT_EQ(h.engine.job_records().size(), 2u);
  std::size_t maps = 0, reduces = 0;
  for (const auto& t : h.engine.task_records()) {
    (t.is_map ? maps : reduces)++;
    EXPECT_GE(t.finished_at, t.assigned_at);
    EXPECT_TRUE(t.node.valid());
  }
  EXPECT_EQ(maps, 10u);
  EXPECT_EQ(reduces, 5u);
}

TEST(Engine, AllSlotsReleasedAtEnd) {
  Harness h(3);
  h.submit_job(8, 4);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_EQ(h.clstr.busy_map_slots(), 0u);
  EXPECT_EQ(h.clstr.busy_reduce_slots(), 0u);
}

TEST(Engine, ShuffleByteConservation) {
  Harness h(4);
  JobRun& job = h.submit_job(5, 3, 64.0 * units::kMiB, 1.5);
  sched::FifoScheduler fifo;
  h.run(fifo);
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    double expected = 0.0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      expected += job.final_partition(j, f);
    }
    EXPECT_NEAR(job.reduce_state(f).bytes_fetched, expected,
                expected * 1e-9 + 1.0);
    EXPECT_EQ(job.reduce_state(f).fetched_maps, job.map_count());
  }
}

TEST(Engine, MapLocalityClassification) {
  Harness h(4);
  JobRun& job = h.submit_job(3, 1);
  sched::FifoScheduler fifo;
  h.run(fifo);
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const auto& m = job.map_state(j);
    const bool is_replica = h.store.is_replica(
        m.node, job.spec().map_tasks[j].block);
    if (is_replica) {
      EXPECT_EQ(m.locality, Locality::kNodeLocal);
      EXPECT_DOUBLE_EQ(m.placement_cost, 0.0);
    } else {
      EXPECT_EQ(m.locality, Locality::kRackLocal);  // single rack
      EXPECT_GT(m.placement_cost, 0.0);
    }
  }
}

TEST(Engine, MapCostMatchesEq1) {
  Harness h(5);
  JobRun& job = h.submit_job(4, 1, 100.0);
  // Before running: verify Eq. 1 against a manual computation.
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t n = 0; n < 5; ++n) {
      double best = 1e300;
      for (NodeId r : h.store.replicas(job.spec().map_tasks[j].block)) {
        best = std::min(best, double(h.topo.hops(NodeId(n), r)));
      }
      EXPECT_DOUBLE_EQ(h.engine.map_cost(job, j, NodeId(n)), 100.0 * best);
    }
  }
}

TEST(Engine, ReduceGateRespectsSlowstart) {
  EngineConfig cfg;
  cfg.reduce_slowstart = 0.5;
  Harness h(3, {}, cfg);
  JobRun& job = h.submit_job(10, 2);
  EXPECT_FALSE(h.engine.reduce_gate_open(job));
  for (int i = 0; i < 5; ++i) job.note_map_finished();
  EXPECT_TRUE(h.engine.reduce_gate_open(job));
}

TEST(Engine, UtilizationPositiveAndBounded) {
  Harness h(3);
  h.submit_job(12, 4);
  sched::FifoScheduler fifo;
  h.run(fifo);
  const auto u = h.engine.utilization();
  EXPECT_GT(u.span, 0.0);
  EXPECT_GT(u.map_utilization(), 0.0);
  EXPECT_LE(u.map_utilization(), 1.0);
  EXPECT_GT(u.reduce_utilization(), 0.0);
  EXPECT_LE(u.reduce_utilization(), 1.0);
}

TEST(Engine, StaggeredSubmissionTimes) {
  Harness h(4);
  JobRun& early = h.submit_job(3, 1);
  JobRun& late = h.submit_job(3, 1);
  late.submit_time = 50.0;
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_GE(late.first_task_start, 50.0);
  EXPECT_LT(early.first_task_start, 10.0);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(Engine, HeartbeatBudgetEnforced) {
  // A scheduler that tries to over-assign must trip the budget check; we
  // verify the engine exposes a correct countdown instead of crashing by
  // assigning exactly the budget, and that each offer comes with a budget
  // of one.
  struct GreedyOne final : TaskScheduler {
    const char* name() const override { return "greedy1"; }
    void offer_map(Engine& e, NodeId node) override {
      EXPECT_EQ(e.map_budget_left(), 1u);
      auto jobs = jobs_for_maps(e, JobOrder::kFifo);
      if (jobs.empty()) return;
      const std::size_t j = jobs[0]->next_any_map();
      if (j < jobs[0]->map_count()) {
        e.assign_map(*jobs[0], j, node);
        EXPECT_EQ(e.map_budget_left(), 0u);
      }
    }
    void offer_reduce(Engine& e, NodeId node) override {
      EXPECT_EQ(e.reduce_budget_left(), 1u);
      auto rjobs = jobs_for_reduces(e, JobOrder::kFifo);
      if (rjobs.empty()) return;
      const auto un = rjobs[0]->unassigned_reduces();
      if (!un.empty()) e.assign_reduce(*rjobs[0], un.front(), node);
    }
  };
  Harness h(3);
  h.submit_job(9, 3);
  GreedyOne sched;
  h.run(sched);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(Engine, RemoteMapMovesBytes) {
  // Force remote maps by assigning every map to a non-replica node.
  struct RemoteOnly final : TaskScheduler {
    const dfs::BlockStore* store;
    const char* name() const override { return "remote"; }
    void offer_map(Engine& e, NodeId node) override {
      auto jobs = jobs_for_maps(e, JobOrder::kFifo);
      if (jobs.empty()) return;
      for (std::size_t j : jobs[0]->unassigned_maps()) {
        if (!store->is_replica(node, jobs[0]->spec().map_tasks[j].block)) {
          e.assign_map(*jobs[0], j, node);
          return;
        }
      }
    }
    void offer_reduce(Engine& e, NodeId node) override {
      if (!jobs_for_maps(e, JobOrder::kFifo).empty()) return;
      auto rjobs = jobs_for_reduces(e, JobOrder::kFifo);
      if (rjobs.empty()) return;
      const auto un = rjobs[0]->unassigned_reduces();
      if (!un.empty()) e.assign_reduce(*rjobs[0], un.front(), node);
    }
  };
  Harness h(6);
  JobRun& job = h.submit_job(4, 1, 32.0 * units::kMiB);
  RemoteOnly sched;
  sched.store = &h.store;
  h.run(sched);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  Bytes remote_bytes = 0.0;
  for (const auto& t : h.engine.task_records()) {
    if (t.is_map) {
      EXPECT_NE(t.locality, Locality::kNodeLocal);
      remote_bytes += t.network_bytes;
    }
  }
  EXPECT_NEAR(remote_bytes, 4.0 * 32.0 * units::kMiB, 1.0);
  (void)job;
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Harness h(4);
    h.submit_job(8, 3);
    sched::FifoScheduler fifo;
    h.run(fifo);
    std::vector<double> times;
    for (const auto& t : h.engine.task_records()) {
      times.push_back(t.finished_at);
    }
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ReduceLocalityAtAssignment) {
  Harness h(3);
  JobRun& job = h.submit_job(6, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);
  // With single rack, reduces are node-local or rack-local, never remote
  // (slowstart guarantees at least one completed map at assignment).
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    EXPECT_NE(job.reduce_state(f).locality, Locality::kRemote);
  }
}

}  // namespace
}  // namespace mrs::mapreduce
