// Tests for the open-loop streaming runner: drain, determinism of the
// steady-state metrics, arrival pairing across schedulers, and warmup
// windowing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "mrs/driver/stream_experiment.hpp"

namespace mrs::driver {
namespace {

StreamConfig tiny_stream(SchedulerKind kind, std::uint64_t seed = 42) {
  StreamConfig cfg;
  // paper_config needs a non-empty batch; the stream overwrites it.
  cfg.base = paper_config(
      {{"d", "dummy", mapreduce::JobKind::kWordcount, 1, 4, 2}}, kind, seed);
  cfg.base.nodes = 8;
  cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
  cfg.arrivals.rate_per_hour = 240.0;
  cfg.arrivals.duration = 600.0;
  cfg.arrivals.mix.map_count_scale = 0.02;  // shrink catalog jobs ~50x
  cfg.arrivals.mix.reduce_count_scale = 0.02;
  cfg.warmup = 100.0;
  return cfg;
}

TEST(StreamExperiment, DrainsAndReportsSteadyState) {
  const auto r = run_stream_experiment(tiny_stream(SchedulerKind::kPna));
  EXPECT_TRUE(r.run.completed);
  ASSERT_FALSE(r.arrivals.empty());
  EXPECT_EQ(r.run.job_records.size(), r.arrivals.size());
  EXPECT_GT(r.steady.jobs_submitted, 0u);
  EXPECT_GT(r.steady.throughput_jobs_per_hour, 0.0);
  EXPECT_GT(r.steady.response_time.p50, 0.0);
  EXPECT_LE(r.steady.response_time.p50, r.steady.response_time.p95);
  EXPECT_LE(r.steady.response_time.p95, r.steady.response_time.p99);
  EXPECT_GT(r.steady.map_slot_utilization, 0.0);
  EXPECT_LE(r.steady.map_slot_utilization, 1.0);
  EXPECT_DOUBLE_EQ(r.steady.window.begin, 100.0);
  EXPECT_DOUBLE_EQ(r.steady.window.end, 600.0);
}

TEST(StreamExperiment, IdenticalSeedsIdenticalSteadyMetrics) {
  // The determinism contract extends to the streaming subsystem: same
  // (seed, config) reproduces the steady-state metrics exactly.
  const auto a = run_stream_experiment(tiny_stream(SchedulerKind::kPna, 9));
  const auto b = run_stream_experiment(tiny_stream(SchedulerKind::kPna, 9));
  EXPECT_DOUBLE_EQ(a.steady.throughput_jobs_per_hour,
                   b.steady.throughput_jobs_per_hour);
  EXPECT_DOUBLE_EQ(a.steady.offered_jobs_per_hour,
                   b.steady.offered_jobs_per_hour);
  EXPECT_DOUBLE_EQ(a.steady.response_time.p50, b.steady.response_time.p50);
  EXPECT_DOUBLE_EQ(a.steady.response_time.p99, b.steady.response_time.p99);
  EXPECT_DOUBLE_EQ(a.steady.queueing_delay.mean, b.steady.queueing_delay.mean);
  EXPECT_DOUBLE_EQ(a.steady.mean_jobs_in_system, b.steady.mean_jobs_in_system);
  EXPECT_DOUBLE_EQ(a.steady.map_slot_utilization,
                   b.steady.map_slot_utilization);
  EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.events_processed, b.run.events_processed);
}

TEST(StreamExperiment, SeedChangesStream) {
  const auto a = run_stream_experiment(tiny_stream(SchedulerKind::kPna, 1));
  const auto b = run_stream_experiment(tiny_stream(SchedulerKind::kPna, 2));
  EXPECT_NE(a.run.makespan, b.run.makespan);
}

TEST(StreamExperiment, ArrivalsPairedAcrossSchedulers) {
  // Runs differing only in the scheduler face byte-identical arrival
  // streams (the Fig. 5 pairing contract, streaming edition).
  const auto fair = tiny_stream(SchedulerKind::kFair, 5);
  const auto pna = tiny_stream(SchedulerKind::kPna, 5);
  const auto af = stream_arrivals(fair);
  const auto ap = stream_arrivals(pna);
  ASSERT_EQ(af.size(), ap.size());
  for (std::size_t i = 0; i < af.size(); ++i) EXPECT_TRUE(af[i] == ap[i]);

  const auto rf = run_stream_experiment(fair);
  const auto rp = run_stream_experiment(pna);
  ASSERT_EQ(rf.run.job_records.size(), rp.run.job_records.size());
  EXPECT_EQ(rf.steady.jobs_submitted, rp.steady.jobs_submitted);
  EXPECT_DOUBLE_EQ(rf.steady.offered_jobs_per_hour,
                   rp.steady.offered_jobs_per_hour);
  // Records are in completion order, which is scheduler-dependent; join
  // the two runs by the (unique) job name.
  std::map<std::string, const mapreduce::JobRecord*> by_name;
  for (const auto& j : rf.run.job_records) by_name[j.name] = &j;
  for (const auto& j : rp.run.job_records) {
    const auto it = by_name.find(j.name);
    ASSERT_NE(it, by_name.end()) << j.name;
    EXPECT_DOUBLE_EQ(j.submit_time, it->second->submit_time);
    EXPECT_DOUBLE_EQ(j.input_bytes, it->second->input_bytes);
  }
}

TEST(StreamExperiment, WarmupJobsExcludedFromWindow) {
  const auto cfg = tiny_stream(SchedulerKind::kFifo, 3);
  const auto r = run_stream_experiment(cfg);
  std::size_t warmup_arrivals = 0;
  for (const auto& a : r.arrivals) {
    if (a.time < cfg.warmup) ++warmup_arrivals;
  }
  ASSERT_GT(warmup_arrivals, 0u);  // the seed produces early arrivals
  EXPECT_EQ(r.steady.jobs_submitted,
            r.arrivals.size() - warmup_arrivals);
}

TEST(StreamExperiment, SubmitTimesFollowArrivals) {
  const auto r = run_stream_experiment(tiny_stream(SchedulerKind::kPna, 8));
  // Job records are emitted in completion order; match them back to the
  // arrival sequence by name.
  for (const auto& j : r.run.job_records) {
    bool found = false;
    for (const auto& a : r.arrivals) {
      if (a.job.name == j.name) {
        EXPECT_DOUBLE_EQ(j.submit_time, a.time);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << j.name;
  }
}

TEST(StreamExperiment, SlotUtilizationUsesNodeClassSlotCounts) {
  // Two node classes with one map and one reduce slot each: the cluster
  // has 12 + 12 slots, not the 48 + 24 that base.node's default 4/2 slots
  // per node would give. Steady utilization divides by the former.
  StreamConfig cfg = tiny_stream(SchedulerKind::kPna);
  cfg.base.nodes = 12;
  cfg.arrivals.rate_per_hour = 300.0;
  cfg.arrivals.mix.map_count_scale = 0.05;
  cfg.arrivals.mix.reduce_count_scale = 0.05;
  hetero::NodeClass a, b;
  a.name = "a";
  b.name = "b";
  for (hetero::NodeClass* c : {&a, &b}) {
    c->map_slots = 1;
    c->reduce_slots = 1;
  }
  cfg.base.hetero.classes = {a, b};
  const auto r = run_stream_experiment(cfg);
  ASSERT_TRUE(r.run.completed);
  ASSERT_EQ(r.run.utilization.total_map_slots, 12u);
  ASSERT_EQ(r.run.utilization.total_reduce_slots, 12u);

  const metrics::Window window{cfg.warmup, cfg.arrivals.duration};
  double map_busy = 0.0, reduce_busy = 0.0;
  for (const auto& t : r.run.task_records) {
    const double overlap =
        std::max(0.0, std::min(t.finished_at, window.end) -
                          std::max(t.assigned_at, window.begin));
    (t.is_map ? map_busy : reduce_busy) += overlap;
  }
  const double len = window.end - window.begin;
  ASSERT_GT(map_busy, 0.0);
  EXPECT_DOUBLE_EQ(r.steady.map_slot_utilization, map_busy / (len * 12.0));
  EXPECT_DOUBLE_EQ(r.steady.reduce_slot_utilization,
                   reduce_busy / (len * 12.0));
}

TEST(StreamExperiment, MmppStreamRuns) {
  StreamConfig cfg = tiny_stream(SchedulerKind::kPna, 4);
  cfg.arrivals.process = workload::ArrivalProcess::kMmpp;
  const auto r = run_stream_experiment(cfg);
  EXPECT_TRUE(r.run.completed);
  EXPECT_GT(r.steady.jobs_submitted, 0u);
}

}  // namespace
}  // namespace mrs::driver
