// Cross-feature interaction tests: speculation x failures, PNA variants,
// estimator visibility during streaming fetches, coupling accept rates.
#include <gtest/gtest.h>

#include "mrs/core/pna_scheduler.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "mrs/sched/coupling.hpp"
#include "mrs/sched/fifo.hpp"
#include "test_harness.hpp"

namespace mrs {
namespace {

using mapreduce::EngineConfig;
using mapreduce::JobRun;
using mapreduce::MapPhase;
using mrs::testing::MiniCluster;

TEST(Interaction, FailureDuringSpeculation) {
  // Stragglers trigger backups; a node failure mid-run must not wedge the
  // engine regardless of whether it hits primaries or backups.
  EngineConfig cfg;
  cfg.fault.straggler_probability = 0.2;
  cfg.fault.straggler_slowdown = 8.0;
  cfg.fault.speculative_execution = true;
  cfg.fault.speculation_slack = 1.5;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    MiniCluster h(6, {}, cfg, seed);
    h.submit_job(30, 4);
    sched::FifoScheduler fifo;
    h.engine.set_scheduler(&fifo);
    h.engine.start();
    h.sim.schedule_at(10.0, [&] { h.engine.fail_node(NodeId(2)); });
    h.sim.schedule_at(15.0, [&] { h.engine.fail_node(NodeId(4)); });
    h.sim.schedule_at(60.0, [&] { h.engine.recover_node(NodeId(2)); });
    h.sim.run(1e6);
    EXPECT_TRUE(h.engine.all_jobs_complete()) << "seed " << seed;
    EXPECT_EQ(h.clstr.busy_map_slots(), 0u);
    EXPECT_EQ(h.clstr.busy_reduce_slots(), 0u);
  }
}

TEST(Interaction, PnaUnderFailures) {
  MiniCluster h(5);
  h.submit_job(20, 6);
  core::PnaScheduler pna({}, Rng(3));
  h.engine.set_scheduler(&pna);
  h.engine.start();
  h.sim.schedule_at(5.0, [&] { h.engine.fail_node(NodeId(1)); });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(Interaction, PnaWalkJobsVariantCompletes) {
  MiniCluster h(4);
  h.submit_job(10, 3);
  h.submit_job(10, 3);
  core::PnaConfig cfg;
  cfg.walk_jobs_on_failure = true;
  core::PnaScheduler pna(cfg, Rng(4));
  h.run(pna);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(Interaction, EstimatorSeesStreamingMaps) {
  // A map in the kFetching (streaming) phase reports progress > 0, so the
  // projected estimator must include its output.
  MiniCluster h(3);
  JobRun& job = h.submit_job(2, 2);
  auto& m = job.map_state(0);
  m.node = NodeId(0);
  m.phase = MapPhase::kFetching;
  m.compute_start = 0.0;
  m.compute_duration = 10.0;
  const core::IntermediateSnapshot snap(job, 5.0,
                                        core::EstimatorMode::kProjected, 3);
  EXPECT_GT(snap.total_for(0), 0.0);
  // Projection from the streaming ramp is exact for a linear emitter.
  EXPECT_NEAR(snap.bytes_from(0, 0), job.final_partition(0, 0), 1e-6);
}

TEST(Interaction, CouplingAcceptRatesFollowConfig) {
  // With remote probability 0 coupling never places a map off-replica; with
  // probability 1 it places them freely (single-rack: non-local==rack).
  auto locality_with = [](double rack_p) {
    MiniCluster h(6);
    JobRun& job = h.submit_job(24, 2);
    sched::CouplingConfig cfg;
    cfg.rack_local_probability = rack_p;
    cfg.remote_probability = rack_p;
    sched::CouplingScheduler coupling(cfg, Rng(5));
    h.run(coupling);
    EXPECT_TRUE(job.complete());
    std::size_t local = 0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      if (job.map_state(j).locality == mapreduce::Locality::kNodeLocal) {
        ++local;
      }
    }
    return double(local) / double(job.map_count());
  };
  const double strict = locality_with(0.0);
  const double loose = locality_with(1.0);
  EXPECT_DOUBLE_EQ(strict, 1.0);  // never accepts non-local
  EXPECT_LT(loose, 1.0);          // takes some non-local eagerly
}

TEST(Interaction, StragglersWithRemoteStreams) {
  // Straggling remote maps stream slowly (rate cap scales with the drawn
  // duration); everything still completes and byte accounting holds.
  EngineConfig cfg;
  cfg.fault.straggler_probability = 0.3;
  cfg.fault.straggler_slowdown = 5.0;
  MiniCluster h(4, {}, cfg);
  JobRun& job = h.submit_job(16, 3, 32.0 * units::kMiB, 1.0,
                             /*replication=*/1);  // low replication: more
                                                  // remote streams
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(job.complete());
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    double expected = 0.0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      expected += job.final_partition(j, f);
    }
    EXPECT_NEAR(job.reduce_state(f).bytes_fetched, expected,
                expected * 1e-9 + 1.0);
  }
}

TEST(Interaction, RepeatedFailureOfSameNode) {
  MiniCluster h(4);
  h.submit_job(20, 4);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  mapreduce::MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  // Fail -> recover -> fail the same node.
  h.sim.schedule_at(3.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.schedule_at(10.0, [&] { h.engine.recover_node(NodeId(0)); });
  h.sim.schedule_at(20.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.schedule_at(40.0, [&] { h.engine.recover_node(NodeId(0)); });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(trace.count("node-failed"), 2u);
}

}  // namespace
}  // namespace mrs
