// Tests for the probabilistic network-aware scheduler (Algorithms 1 & 2).
#include <gtest/gtest.h>

#include <string>

#include "mrs/core/pna_scheduler.hpp"
#include "test_harness.hpp"

namespace mrs::core {
namespace {

using mapreduce::JobRun;
using mapreduce::Locality;
using mrs::testing::MiniCluster;

PnaConfig paper_defaults() {
  PnaConfig cfg;
  cfg.p_min = 0.4;
  return cfg;
}

/// The scheduler's `pna.*` counters, read after a run.
struct PnaCounters {
  explicit PnaCounters(PnaScheduler& pna) { pna.set_telemetry(&registry); }

  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    return registry.snapshot().counter("pna." + name);
  }
  /// Offers of `kind` ("map" or "reduce") declined by P_min or the draw.
  [[nodiscard]] std::uint64_t skips(const std::string& kind) const {
    return get(kind + ".pmin_skips") + get(kind + ".bernoulli_rejects");
  }

  telemetry::Registry registry;
};

TEST(PnaScheduler, CompletesSingleJob) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(8, 3);
  PnaScheduler pna(paper_defaults(), Rng(1));
  const PnaCounters counters(pna);
  h.run(pna);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_TRUE(job.complete());
  EXPECT_GT(counters.get("map.attempts"), 0u);
  EXPECT_GT(counters.get("reduce.attempts"), 0u);
}

TEST(PnaScheduler, CompletesMultiJobBatch) {
  MiniCluster h(6);
  h.submit_job(10, 4);
  h.submit_job(6, 8);
  h.submit_job(12, 2);
  PnaScheduler pna(paper_defaults(), Rng(2));
  h.run(pna);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(h.engine.job_records().size(), 3u);
}

TEST(PnaScheduler, LocalFastPathAlwaysTaken) {
  // Every block has a replica on every node (replication == nodes): the
  // fast path must make every map node-local, with zero skips.
  MiniCluster h(3);
  JobRun& job = h.submit_job(9, 2, 64.0 * units::kMiB, 1.0,
                             /*replication=*/3);
  PnaScheduler pna(paper_defaults(), Rng(3));
  const PnaCounters counters(pna);
  h.run(pna);
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    EXPECT_EQ(job.map_state(j).locality, Locality::kNodeLocal);
  }
  EXPECT_EQ(counters.get("map.local_fastpath"), job.map_count());
  EXPECT_EQ(counters.skips("map"), 0u);
}

TEST(PnaScheduler, TooHighPMinStallsReduces) {
  // With p_min above 1 - 1/e (~0.632), every reduce offer in a uniform
  // single rack scores P ~ 0.63 < p_min and is skipped forever: the job
  // cannot finish. This cliff is exactly why the paper tunes P_min
  // empirically as "the highest value at which all jobs finished
  // successfully" (Sec. III) — and why it lands at 0.4.
  MiniCluster h(6);
  PnaConfig cfg;
  cfg.p_min = 0.75;
  JobRun& job = h.submit_job(12, 2);
  PnaScheduler pna(cfg, Rng(4));
  const PnaCounters counters(pna);
  h.run(pna, /*max_time=*/2000.0);
  EXPECT_FALSE(h.engine.all_jobs_complete());
  EXPECT_EQ(job.maps_finished(), job.map_count());  // maps still complete
  EXPECT_EQ(job.reduces_finished(), 0u);            // reduces starve
  EXPECT_GT(counters.skips("reduce"), 0u);
  // Whatever maps were placed, the threshold kept them node-local.
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    EXPECT_EQ(job.map_state(j).locality, Locality::kNodeLocal);
  }
}

TEST(PnaScheduler, ColocationBanHolds) {
  // Track concurrent reduces per node through the run via a wrapper.
  struct Watcher final : mapreduce::TaskScheduler {
    PnaScheduler* inner;
    JobRun* job;
    bool violated = false;
    const char* name() const override { return "watch"; }
    void on_heartbeat(mapreduce::Engine& e, NodeId node) override {
      inner->on_heartbeat(e, node);
      std::vector<int> running(e.cluster().node_count(), 0);
      for (std::size_t f = 0; f < job->reduce_count(); ++f) {
        const auto& r = job->reduce_state(f);
        if (r.phase != mapreduce::ReducePhase::kUnassigned &&
            r.phase != mapreduce::ReducePhase::kDone) {
          if (++running[r.node.value()] > 1) violated = true;
        }
      }
    }
  };
  MiniCluster h(5);
  JobRun& job = h.submit_job(6, 10);  // more reduces than nodes
  PnaScheduler pna(paper_defaults(), Rng(5));
  Watcher w;
  w.inner = &pna;
  w.job = &job;
  h.run(w);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_FALSE(w.violated);
}

TEST(PnaScheduler, DeterministicGivenSeed) {
  auto run_once = [] {
    MiniCluster h(4);
    h.submit_job(10, 4);
    PnaScheduler pna(paper_defaults(), Rng(42));
    h.run(pna);
    std::vector<double> t;
    for (const auto& r : h.engine.task_records()) t.push_back(r.finished_at);
    return t;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PnaScheduler, SeedChangesDecisions) {
  auto run_with = [](std::uint64_t seed) {
    MiniCluster h(6);
    h.submit_job(20, 6);
    PnaScheduler pna(paper_defaults(), Rng(seed));
    h.run(pna);
    std::vector<std::size_t> nodes;
    for (const auto& r : h.engine.task_records()) {
      nodes.push_back(r.node.value());
    }
    return nodes;
  };
  EXPECT_NE(run_with(1), run_with(999));
}

TEST(PnaScheduler, GreedyModelNeverSkips) {
  MiniCluster h(4);
  PnaConfig cfg = paper_defaults();
  cfg.model = ProbabilityModel::kGreedy;
  cfg.p_min = 0.0;
  h.submit_job(12, 4);
  PnaScheduler pna(cfg, Rng(7));
  const PnaCounters counters(pna);
  h.run(pna);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_GT(counters.get("map.attempts"), 0u);
  EXPECT_GT(counters.get("reduce.attempts"), 0u);
  EXPECT_EQ(counters.skips("map"), 0u);
  EXPECT_EQ(counters.skips("reduce"), 0u);
}

TEST(PnaScheduler, EstimatorModesAllComplete) {
  for (auto mode : {EstimatorMode::kProjected, EstimatorMode::kCurrent,
                    EstimatorMode::kOracle}) {
    MiniCluster h(4);
    PnaConfig cfg = paper_defaults();
    cfg.estimator = mode;
    h.submit_job(8, 4);
    PnaScheduler pna(cfg, Rng(8));
    h.run(pna);
    EXPECT_TRUE(h.engine.all_jobs_complete()) << to_string(mode);
  }
}

TEST(PnaScheduler, SlowstartGateDelaysReduces) {
  mapreduce::EngineConfig ecfg;
  ecfg.reduce_slowstart = 0.9;
  MiniCluster h(4, {}, ecfg);
  JobRun& job = h.submit_job(10, 2);
  PnaScheduler pna(paper_defaults(), Rng(9));
  h.run(pna);
  // Every reduce was assigned only after 90% of maps had finished.
  std::vector<Seconds> map_finishes;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    map_finishes.push_back(job.map_state(j).finished_at);
  }
  std::sort(map_finishes.begin(), map_finishes.end());
  const Seconds gate_time = map_finishes[8];  // 9th of 10 finishes
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    EXPECT_GE(job.reduce_state(f).assigned_at, gate_time);
  }
}

TEST(PnaScheduler, RejectsInvalidPMin) {
  EXPECT_DEATH(PnaScheduler(PnaConfig{.p_min = 1.0}, Rng(1)), "p_min");
}

}  // namespace
}  // namespace mrs::core
