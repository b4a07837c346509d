// Tests for the experiment driver: wiring, determinism/pairing contract,
// and the parallel runner.
#include <gtest/gtest.h>

#include "mrs/driver/experiment.hpp"
#include "mrs/metrics/summary.hpp"

namespace mrs::driver {
namespace {

std::vector<workload::JobDescription> tiny_jobs() {
  // Shrunk versions of three Table II applications so driver tests run in
  // milliseconds.
  using mapreduce::JobKind;
  return {
      {"t1", "Wordcount_tiny", JobKind::kWordcount, 1, 12, 6},
      {"t2", "Terasort_tiny", JobKind::kTerasort, 1, 10, 5},
      {"t3", "Grep_tiny", JobKind::kGrep, 1, 8, 4},
  };
}

ExperimentConfig tiny_config(SchedulerKind kind, std::uint64_t seed = 42) {
  ExperimentConfig cfg = paper_config(tiny_jobs(), kind, seed);
  cfg.nodes = 8;
  return cfg;
}

TEST(Driver, RunsToCompletion) {
  const auto result = run_experiment(tiny_config(SchedulerKind::kPna));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.job_records.size(), 3u);
  EXPECT_EQ(result.task_records.size(), 12u + 6u + 10u + 5u + 8u + 4u);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.events_processed, 0u);
  EXPECT_EQ(result.scheduler_name, "probabilistic");
}

TEST(Driver, EverySchedulerKindRuns) {
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kFair,
                    SchedulerKind::kCoupling, SchedulerKind::kPna}) {
    const auto result = run_experiment(tiny_config(kind));
    EXPECT_TRUE(result.completed) << to_string(kind);
    EXPECT_EQ(result.scheduler_name, to_string(kind));
  }
}

TEST(Driver, DeterministicPerSeed) {
  const auto a = run_experiment(tiny_config(SchedulerKind::kPna, 7));
  const auto b = run_experiment(tiny_config(SchedulerKind::kPna, 7));
  ASSERT_EQ(a.task_records.size(), b.task_records.size());
  for (std::size_t i = 0; i < a.task_records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.task_records[i].finished_at,
                     b.task_records[i].finished_at);
    EXPECT_EQ(a.task_records[i].node, b.task_records[i].node);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Driver, SeedChangesOutcome) {
  const auto a = run_experiment(tiny_config(SchedulerKind::kPna, 1));
  const auto b = run_experiment(tiny_config(SchedulerKind::kPna, 2));
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Driver, WorkloadPairedAcrossSchedulers) {
  // The Fig. 5 pairing contract: runs differing only in the scheduler see
  // identical workloads (same job input/shuffle bytes).
  const auto fair = run_experiment(tiny_config(SchedulerKind::kFair, 5));
  const auto pna = run_experiment(tiny_config(SchedulerKind::kPna, 5));
  ASSERT_EQ(fair.job_records.size(), pna.job_records.size());
  for (std::size_t i = 0; i < fair.job_records.size(); ++i) {
    EXPECT_EQ(fair.job_records[i].name, pna.job_records[i].name);
    EXPECT_DOUBLE_EQ(fair.job_records[i].input_bytes,
                     pna.job_records[i].input_bytes);
    EXPECT_DOUBLE_EQ(fair.job_records[i].shuffle_bytes,
                     pna.job_records[i].shuffle_bytes);
  }
}

TEST(Driver, ParallelMatchesSerial) {
  std::vector<ExperimentConfig> cfgs = {
      tiny_config(SchedulerKind::kFair, 3),
      tiny_config(SchedulerKind::kCoupling, 3),
      tiny_config(SchedulerKind::kPna, 3),
      tiny_config(SchedulerKind::kPna, 4),
  };
  const auto parallel = run_experiments(cfgs);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto serial = run_experiment(cfgs[i]);
    EXPECT_DOUBLE_EQ(parallel[i].makespan, serial.makespan);
    EXPECT_EQ(parallel[i].task_records.size(), serial.task_records.size());
    EXPECT_EQ(parallel[i].scheduler_name, serial.scheduler_name);
  }
}

TEST(Driver, ParallelByteIdenticalToSerial) {
  // The stream harness sweeps (scheduler, rate) grids through
  // run_experiments; the determinism contract it relies on is stronger
  // than "same makespan": every record field must match the serial run
  // exactly, bit for bit.
  std::vector<ExperimentConfig> cfgs = {
      tiny_config(SchedulerKind::kFifo, 11),
      tiny_config(SchedulerKind::kFair, 11),
      tiny_config(SchedulerKind::kCoupling, 11),
      tiny_config(SchedulerKind::kLarts, 11),
      tiny_config(SchedulerKind::kMinCost, 11),
      tiny_config(SchedulerKind::kPna, 11),
      tiny_config(SchedulerKind::kPna, 12),
      tiny_config(SchedulerKind::kPna, 13),
  };
  const auto parallel = run_experiments(cfgs);
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto serial = run_experiment(cfgs[i]);
    const auto& p = parallel[i];
    ASSERT_EQ(p.task_records.size(), serial.task_records.size());
    for (std::size_t t = 0; t < p.task_records.size(); ++t) {
      const auto& a = p.task_records[t];
      const auto& b = serial.task_records[t];
      EXPECT_EQ(a.job, b.job);
      EXPECT_EQ(a.is_map, b.is_map);
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.node, b.node);
      EXPECT_EQ(a.locality, b.locality);
      EXPECT_EQ(a.assigned_at, b.assigned_at);    // exact, not approximate
      EXPECT_EQ(a.finished_at, b.finished_at);
      EXPECT_EQ(a.placement_cost, b.placement_cost);
      EXPECT_EQ(a.network_bytes, b.network_bytes);
      EXPECT_EQ(a.attempts, b.attempts);
    }
    ASSERT_EQ(p.job_records.size(), serial.job_records.size());
    for (std::size_t j = 0; j < p.job_records.size(); ++j) {
      const auto& a = p.job_records[j];
      const auto& b = serial.job_records[j];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.input_bytes, b.input_bytes);
      EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
      EXPECT_EQ(a.submit_time, b.submit_time);
      EXPECT_EQ(a.finish_time, b.finish_time);
    }
    EXPECT_EQ(p.makespan, serial.makespan);
    EXPECT_EQ(p.events_processed, serial.events_processed);
    EXPECT_EQ(p.utilization.map_slot_seconds_busy,
              serial.utilization.map_slot_seconds_busy);
    EXPECT_EQ(p.utilization.reduce_slot_seconds_busy,
              serial.utilization.reduce_slot_seconds_busy);
    EXPECT_EQ(p.utilization.span, serial.utilization.span);
  }
}

TEST(Driver, SubmitTimesOverrideSpacing) {
  ExperimentConfig cfg = tiny_config(SchedulerKind::kFifo, 6);
  cfg.submit_times = {0.0, 40.0, 95.0};
  const auto result = run_experiment(cfg);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.job_records.size(), 3u);
  for (const auto& j : result.job_records) {
    if (j.name == "Wordcount_tiny") {
      EXPECT_DOUBLE_EQ(j.submit_time, 0.0);
    } else if (j.name == "Terasort_tiny") {
      EXPECT_DOUBLE_EQ(j.submit_time, 40.0);
    } else {
      EXPECT_DOUBLE_EQ(j.submit_time, 95.0);
    }
  }
}

TEST(Driver, MultiRackTopology) {
  ExperimentConfig cfg = tiny_config(SchedulerKind::kPna);
  cfg.racks = 2;
  cfg.nodes = 8;
  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.completed);
  // Cross-rack placements can now be remote.
  bool any_remote_or_rack = false;
  for (const auto& t : result.task_records) {
    if (t.locality != mapreduce::Locality::kNodeLocal) {
      any_remote_or_rack = true;
    }
  }
  EXPECT_TRUE(any_remote_or_rack);
}

TEST(Driver, RacksMustDivideNodes) {
  // Rounding hosts_per_rack up would build a bigger cluster than asked
  // for (12 nodes in 5 racks would simulate 15).
  ExperimentConfig cfg = tiny_config(SchedulerKind::kPna);
  cfg.nodes = 12;
  cfg.racks = 5;
  EXPECT_DEATH((void)run_experiment(cfg), "nodes % cfg.racks");
}

TEST(Driver, DistanceModesAllRun) {
  for (auto mode : {DistanceMode::kHops, DistanceMode::kInverseRate,
                    DistanceMode::kWeightedPerLink, DistanceMode::kLoadAware}) {
    ExperimentConfig cfg = tiny_config(SchedulerKind::kPna);
    cfg.distance_mode = mode;
    const auto result = run_experiment(cfg);
    EXPECT_TRUE(result.completed);
  }
}

TEST(Driver, CleanNetworkWhenNoBackground) {
  ExperimentConfig cfg = tiny_config(SchedulerKind::kFifo);
  cfg.background = {};  // zero traffic
  cfg.distance_mode = DistanceMode::kHops;
  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.completed);
}

TEST(Driver, PaperConfigMatchesSetup) {
  const auto cfg = paper_config(tiny_jobs(), SchedulerKind::kPna);
  EXPECT_EQ(cfg.nodes, 60u);
  EXPECT_EQ(cfg.racks, 1u);
  EXPECT_EQ(cfg.node.map_slots, 4u);
  EXPECT_EQ(cfg.node.reduce_slots, 2u);
  EXPECT_DOUBLE_EQ(cfg.pna.p_min, 0.4);
  EXPECT_EQ(cfg.workload.replication, 2u);
}

TEST(Driver, UtilizationReported) {
  const auto result = run_experiment(tiny_config(SchedulerKind::kFair));
  EXPECT_GT(result.utilization.map_utilization(), 0.0);
  EXPECT_LE(result.utilization.map_utilization(), 1.0);
  EXPECT_GT(result.utilization.span, 0.0);
}

}  // namespace
}  // namespace mrs::driver
