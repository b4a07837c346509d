// Causal tracing subsystem: span-tree invariants, critical-path blame
// partition exactness, decision-record determinism, disabled-mode byte
// identity, the per-node slot sampler columns, the causal JSONL writer,
// and the Perfetto retry/speculation flow events.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mrs/driver/experiment.hpp"
#include "mrs/telemetry/perfetto.hpp"
#include "mrs/trace/critical_path.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::driver {
namespace {

std::vector<workload::JobDescription> small_jobs() {
  using mapreduce::JobKind;
  return {
      {"01", "Wordcount_small", JobKind::kWordcount, 1, 14, 6},
      {"02", "Terasort_small", JobKind::kTerasort, 1, 12, 6},
      {"03", "Grep_small", JobKind::kGrep, 1, 10, 4},
      {"04", "Wordcount_small2", JobKind::kWordcount, 1, 8, 3},
  };
}

ExperimentConfig traced_config(std::uint64_t seed = 42) {
  auto cfg = paper_config(small_jobs(), SchedulerKind::kPna, seed);
  cfg.nodes = 12;
  cfg.enable_tracing = true;
  return cfg;
}

/// Stragglers + speculation + node failures: the span trees gain killed
/// attempts, backup racers, and re-executions.
ExperimentConfig faulty_config(std::uint64_t seed = 7) {
  auto cfg = traced_config(seed);
  cfg.engine.fault.straggler_probability = 0.3;
  cfg.engine.fault.speculative_execution = true;
  cfg.failures.cluster_mtbf = 400.0;
  return cfg;
}

void check_task_spans(const trace::TaskSpans& task, bool job_completed) {
  std::size_t finished = 0;
  for (std::size_t a = 0; a < task.attempts.size(); ++a) {
    const auto& at = task.attempts[a];
    EXPECT_GE(at.assigned, 0.0);
    EXPECT_TRUE(at.node.valid());
    if (at.closed) {
      EXPECT_GE(at.end, at.assigned);
    }
    if (at.ready >= 0.0 && at.closed) {
      EXPECT_GE(at.ready, at.assigned);
      EXPECT_LE(at.ready, at.end);
    }
    if (at.shuffle_done >= 0.0 && at.closed) {
      EXPECT_GE(at.shuffle_done, at.ready);
      EXPECT_LE(at.shuffle_done, at.end);
    }
    if (at.finished) {
      EXPECT_TRUE(at.closed);
      ++finished;
    }
  }
  if (job_completed) {
    // A node failure can erase a finished map's output and re-run it, so
    // more than one finished attempt is legal — but never zero, and
    // nothing may still be open once the job completed.
    EXPECT_GE(finished, 1u);
    for (const auto& at : task.attempts) EXPECT_TRUE(at.closed);
    ASSERT_NE(task.final_attempt(), nullptr);
    EXPECT_TRUE(task.final_attempt()->finished);
  }
}

TEST(CausalTrace, SpanTreeInvariants) {
  const auto result = run_experiment(faulty_config());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.tracing_enabled);
  ASSERT_EQ(result.job_traces.size(), small_jobs().size());
  for (const auto& jt : result.job_traces) {
    EXPECT_TRUE(jt.activated);
    EXPECT_FALSE(jt.aborted);
    EXPECT_GE(jt.admitted, jt.submit);
    EXPECT_GT(jt.finish, jt.submit);
    EXPECT_FALSE(jt.maps.empty());
    for (const auto& task : jt.maps) check_task_spans(task, true);
    for (const auto& task : jt.reduces) check_task_spans(task, true);
    // The job's finish bounds every span boundary.
    for (const auto* side : {&jt.maps, &jt.reduces}) {
      for (const auto& task : *side) {
        for (const auto& at : task.attempts) {
          if (at.closed) {
            EXPECT_LE(at.end, jt.finish + 1e-9);
          }
        }
      }
    }
  }
}

void check_blames(const ExperimentResult& result) {
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.job_blames.size(), result.job_traces.size());
  for (const auto& b : result.job_blames) {
    const double sum = b.queue() + b.network() + b.compute() + b.retry();
    EXPECT_NEAR(sum, b.response, 1e-6) << "job " << b.name;
    for (std::size_t i = 0; i < trace::kBlameBuckets; ++i) {
      EXPECT_GE(b.bucket[i], 0.0) << trace::kBlameBucketNames[i];
    }
    // Response is the measured submit -> finish interval of that job.
    bool found = false;
    for (const auto& jt : result.job_traces) {
      if (jt.job != b.job) continue;
      EXPECT_NEAR(b.response, jt.finish - jt.submit, 1e-9);
      found = true;
    }
    EXPECT_TRUE(found);
  }
  // The aggregate preserves the totals.
  const auto& cp = result.critical_path;
  EXPECT_EQ(cp.jobs, result.job_blames.size());
  double resp = 0.0, buckets = 0.0;
  std::size_t dom = 0;
  for (const auto& b : result.job_blames) resp += b.response;
  for (std::size_t i = 0; i < trace::kBlameBuckets; ++i) {
    buckets += cp.bucket[i];
    dom += cp.dominant_count[i];
  }
  EXPECT_NEAR(cp.response, resp, 1e-6);
  EXPECT_NEAR(buckets, resp, 1e-6);
  EXPECT_EQ(dom, cp.jobs);
}

TEST(CausalTrace, BlameBucketsSumToResponse) {
  check_blames(run_experiment(traced_config()));
}

TEST(CausalTrace, BlameBucketsSumToResponseUnderFaults) {
  check_blames(run_experiment(faulty_config()));
}

/// Aggressive network chaos + the stall watchdog: transfers park on cut
/// links, time out, and retry through the kill/re-place machinery.
ExperimentConfig chaos_traced_config(std::uint64_t seed = 7) {
  auto cfg = traced_config(seed);
  cfg.net_faults.link_mtbf = 10.0;  // aggressive: dozens of cuts per run
  cfg.net_faults.link_repair_time = 40.0;
  cfg.net_faults.switch_mtbf = 400.0;
  cfg.net_faults.switch_repair_time = 90.0;
  cfg.net_faults.surge_mtbf = 300.0;
  cfg.net_faults.surge_duration = 120.0;
  cfg.engine.stall_timeout = 5.0;
  cfg.engine.stall_backoff_base = 2.0;
  cfg.engine.stall_backoff_cap = 10.0;
  return cfg;
}

TEST(CausalTrace, BlameBucketsSumToResponseUnderNetworkChaos) {
  // Stall-retry attempts enter the span trees as killed attempts; the
  // blame partition must stay exact (every bucket non-negative, buckets
  // summing to the measured response) with the retry bucket absorbing the
  // backoff gaps the watchdog introduces.
  const auto result = run_experiment(chaos_traced_config());
  check_blames(result);
  // The chaos actually bit: transfers stalled, timed out and retried.
  EXPECT_GT(result.telemetry.counter("engine.transfer.stall_timeouts"), 0.0);
  EXPECT_GT(result.telemetry.counter("engine.transfer.retries"), 0.0);
  EXPECT_GT(result.telemetry.counter("net.fault.links_cut"), 0.0);
  double retry_blame = 0.0;
  for (const auto& b : result.job_blames) retry_blame += b.retry();
  EXPECT_GT(retry_blame, 0.0);
}

TEST(CausalTrace, DecisionRecordsEmittedForAcceptAndReject) {
  const auto result = run_experiment(traced_config());
  ASSERT_FALSE(result.decisions.empty());
  std::size_t assigns = 0, terminals = 0;
  for (const auto& d : result.decisions) {
    using trace::DecisionOutcome;
    if (d.outcome == DecisionOutcome::kAssigned ||
        d.outcome == DecisionOutcome::kLocalFastPath) {
      ++assigns;
      EXPECT_TRUE(d.job.valid());
      EXPECT_GE(d.p, 0.0);
    } else {
      ++terminals;
    }
    EXPECT_TRUE(d.node.valid());
  }
  EXPECT_GT(assigns, 0u);
  EXPECT_GT(terminals, 0u) << "a PNA run must also record rejections";
  // Every successful assignment shows up in the task records too.
  std::size_t placed = 0;
  for (const auto& t : result.task_records) placed += t.attempts;
  EXPECT_EQ(assigns, placed);
}

TEST(CausalTrace, PminSkipDecisionsMatchCounter) {
  const auto result = run_experiment(traced_config());
  std::size_t map_skips = 0, reduce_skips = 0;
  for (const auto& d : result.decisions) {
    if (d.outcome != trace::DecisionOutcome::kPminSkip) continue;
    (d.is_map ? map_skips : reduce_skips) += 1;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(map_skips),
                   result.telemetry.counter("pna.map.pmin_skips"));
  EXPECT_DOUBLE_EQ(static_cast<double>(reduce_skips),
                   result.telemetry.counter("pna.reduce.pmin_skips"));
}

TEST(CausalTrace, DecisionRecordsDeterministicSerialVsParallel) {
  const ExperimentConfig cfg = traced_config();
  const auto serial = run_experiment(cfg);
  const std::vector<ExperimentConfig> cfgs = {cfg, cfg};
  const auto parallel = run_experiments(cfgs);
  ASSERT_EQ(parallel.size(), 2u);
  for (const auto& run : parallel) {
    ASSERT_EQ(run.decisions.size(), serial.decisions.size());
    for (std::size_t i = 0; i < serial.decisions.size(); ++i) {
      const auto& a = serial.decisions[i];
      const auto& b = run.decisions[i];
      EXPECT_EQ(a.time, b.time) << "decision " << i;
      EXPECT_EQ(a.is_map, b.is_map) << "decision " << i;
      EXPECT_EQ(a.job, b.job) << "decision " << i;
      EXPECT_EQ(a.task, b.task) << "decision " << i;
      EXPECT_EQ(a.node, b.node) << "decision " << i;
      EXPECT_EQ(a.candidates, b.candidates) << "decision " << i;
      EXPECT_EQ(a.free_nodes, b.free_nodes) << "decision " << i;
      EXPECT_EQ(a.cost, b.cost) << "decision " << i;
      EXPECT_EQ(a.cost_avg, b.cost_avg) << "decision " << i;
      EXPECT_EQ(a.p, b.p) << "decision " << i;
      EXPECT_EQ(a.locality, b.locality) << "decision " << i;
      EXPECT_EQ(a.outcome, b.outcome) << "decision " << i;
    }
    ASSERT_EQ(run.job_blames.size(), serial.job_blames.size());
    for (std::size_t i = 0; i < serial.job_blames.size(); ++i) {
      for (std::size_t bkt = 0; bkt < trace::kBlameBuckets; ++bkt) {
        EXPECT_EQ(run.job_blames[i].bucket[bkt],
                  serial.job_blames[i].bucket[bkt]);
      }
    }
  }
}

TEST(CausalTrace, DisabledIsByteIdentical) {
  ExperimentConfig base = traced_config();
  base.enable_tracing = false;
  const auto seed_run = run_experiment(base);
  const auto traced = run_experiment(traced_config());
  EXPECT_FALSE(seed_run.tracing_enabled);
  EXPECT_TRUE(traced.tracing_enabled);
  EXPECT_EQ(seed_run.events_processed, traced.events_processed);
  EXPECT_EQ(seed_run.makespan, traced.makespan);
  ASSERT_EQ(seed_run.task_records.size(), traced.task_records.size());
  for (std::size_t i = 0; i < seed_run.task_records.size(); ++i) {
    const auto& a = seed_run.task_records[i];
    const auto& b = traced.task_records[i];
    EXPECT_EQ(a.node, b.node) << "task " << i;
    EXPECT_EQ(a.locality, b.locality) << "task " << i;
    EXPECT_EQ(a.assigned_at, b.assigned_at) << "task " << i;
    EXPECT_EQ(a.finished_at, b.finished_at) << "task " << i;
    EXPECT_EQ(a.placement_cost, b.placement_cost) << "task " << i;
  }
  ASSERT_EQ(seed_run.job_records.size(), traced.job_records.size());
  for (std::size_t i = 0; i < seed_run.job_records.size(); ++i) {
    EXPECT_EQ(seed_run.job_records[i].finish_time,
              traced.job_records[i].finish_time);
  }
}

TEST(CausalTrace, NodeSlotSamplerColumns) {
  ExperimentConfig cfg = traced_config();
  cfg.sample_node_slots = true;
  cfg.sample_period = 5.0;
  const auto result = run_experiment(cfg);
  const auto& s = result.samples;
  ASSERT_FALSE(s.rows.empty());
  // 10 default columns + 4 per node, appended after the defaults.
  ASSERT_EQ(s.columns.size(), 10u + 4u * cfg.nodes);
  EXPECT_EQ(s.columns[10], "node0.map_slots.busy");
  EXPECT_EQ(s.columns[11], "node0.map_slots.free");
  EXPECT_EQ(s.columns[12], "node0.reduce_slots.busy");
  EXPECT_EQ(s.columns[13], "node0.reduce_slots.free");
  for (const auto& row : s.rows) {
    ASSERT_EQ(row.values.size(), s.columns.size());
    double busy_maps = 0.0;
    for (std::size_t n = 0; n < cfg.nodes; ++n) {
      const double mb = row.values[10 + 4 * n];
      const double mf = row.values[10 + 4 * n + 1];
      const double rb = row.values[10 + 4 * n + 2];
      const double rf = row.values[10 + 4 * n + 3];
      // paper_config: 4 map + 2 reduce slots per node.
      EXPECT_DOUBLE_EQ(mb + mf, 4.0);
      EXPECT_DOUBLE_EQ(rb + rf, 2.0);
      busy_maps += mb;
    }
    // Per-node columns agree with the cluster-wide busy gauge (column 3).
    EXPECT_DOUBLE_EQ(busy_maps, row.values[3]);
  }
}

TEST(CausalTrace, FaultedLinkCountSamplerColumnOnlyUnderChaos) {
  // With a fault config active the sampler gains one trailing
  // `faulted_link_count` column (the non-fault layout stays exactly as
  // NodeSlotSamplerColumns pins it).
  ExperimentConfig cfg = chaos_traced_config();
  cfg.sample_node_slots = true;
  cfg.sample_period = 5.0;
  const auto result = run_experiment(cfg);
  const auto& s = result.samples;
  ASSERT_FALSE(s.rows.empty());
  ASSERT_EQ(s.columns.size(), 10u + 4u * cfg.nodes + 1u);
  EXPECT_EQ(s.columns.back(), "faulted_link_count");
  double peak = 0.0;
  for (const auto& row : s.rows) {
    ASSERT_EQ(row.values.size(), s.columns.size());
    EXPECT_GE(row.values.back(), 0.0);
    peak = std::max(peak, row.values.back());
  }
  // At mtbf 60 s / repair 45 s some sample catches a link down.
  EXPECT_GT(peak, 0.0);
}

TEST(CausalTrace, WritesAnalyzableJsonl) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "pnats_causal_trace_test.jsonl")
                        .string();
  ExperimentConfig cfg = traced_config();
  cfg.causal_trace_path = path;
  cfg.enable_tracing = false;  // the path alone must enable tracing
  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.tracing_enabled);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::size_t jobs = 0, spans = 0, decisions = 0, blames = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"job\"") != std::string::npos) ++jobs;
    if (line.find("\"type\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"type\":\"decision\"") != std::string::npos) ++decisions;
    if (line.find("\"type\":\"blame\"") != std::string::npos) ++blames;
  }
  EXPECT_EQ(jobs, result.job_traces.size());
  EXPECT_EQ(decisions, result.decisions.size());
  EXPECT_EQ(blames, result.job_blames.size());
  EXPECT_GT(spans, 0u);
  std::remove(path.c_str());
}

/// Event of task `task` of map-only job 0 ("j"), as the engine emits it.
mapreduce::EngineEvent map_event(mapreduce::EventKind kind, Seconds time,
                                 std::size_t task, std::size_t node,
                                 bool backup = false) {
  return {.kind = kind,
          .time = time,
          .job = JobId(0),
          .job_name = "j",
          .backup = backup,
          .task = task,
          .node = NodeId(node)};
}

TEST(PerfettoFlow, RetryFlowLinksKillToReassignment) {
  using mapreduce::EventKind;
  const std::vector<mapreduce::EngineEvent> events = {
      map_event(EventKind::kTaskAssigned, 0.0, 0, 3),
      map_event(EventKind::kTaskKilled, 5.0, 0, 3),
      map_event(EventKind::kTaskAssigned, 7.0, 0, 5),
      map_event(EventKind::kTaskFinished, 20.0, 0, 5)};
  const auto json =
      telemetry::to_chrome_trace(events, telemetry::Snapshot{}, {});
  // One retry flow: start on the killed slice's track at the kill time,
  // finish on the new node's track at the re-assignment.
  EXPECT_NE(json.find("\"cat\":\"retry\",\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"retry\",\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5000000.000,\"pid\":1,\"tid\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":7000000.000,\"pid\":1,\"tid\":5"),
            std::string::npos);
}

TEST(PerfettoFlow, SpeculationFlowLinksPrimaryToBackup) {
  using mapreduce::EventKind;
  const std::vector<mapreduce::EngineEvent> events = {
      map_event(EventKind::kTaskAssigned, 0.0, 1, 2),
      map_event(EventKind::kTaskAssigned, 9.0, 1, 8, /*backup=*/true),
      map_event(EventKind::kTaskFinished, 12.0, 1, 8, /*backup=*/true)};
  const auto json =
      telemetry::to_chrome_trace(events, telemetry::Snapshot{}, {});
  EXPECT_NE(json.find("\"cat\":\"speculation\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"speculation\",\"ph\":\"f\""),
            std::string::npos);
  // The instant itself lands on the backup node's track.
  EXPECT_NE(json.find("speculative-launch: j/map/1"), std::string::npos);
}

// An aborted job's slice closes (marked aborted), and the kills of its
// abort start no retry flow: the killed tasks never run again.
TEST(PerfettoFlow, AbortClosesJobSliceWithoutRetryFlow) {
  using mapreduce::EventKind;
  std::vector<mapreduce::EngineEvent> events = {
      map_event(EventKind::kJobActivated, 0.0, 0, 0),
      map_event(EventKind::kTaskAssigned, 1.0, 0, 3),
      map_event(EventKind::kTaskAssigned, 1.0, 1, 4),
      map_event(EventKind::kNodeFailed, 6.0, 0, 3),
      map_event(EventKind::kTaskKilled, 6.0, 0, 3),
      map_event(EventKind::kNodeBlacklisted, 6.0, 0, 3),
      map_event(EventKind::kTaskKilled, 6.0, 1, 4),
      map_event(EventKind::kJobAborted, 6.0, 0, 0)};
  const auto json =
      telemetry::to_chrome_trace(events, telemetry::Snapshot{}, {});
  EXPECT_NE(json.find("\"cat\":\"job\",\"ph\":\"X\",\"ts\":0.000,"
                      "\"dur\":6000000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"aborted\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"retry\""), std::string::npos);
  EXPECT_EQ(json.find(",\n,"), std::string::npos);  // no hole left behind
  EXPECT_NE(json.find("node-blacklisted: node/3"), std::string::npos);
}

TEST(PerfettoFlow, DecisionRecordsBecomeInstants) {
  trace::PlacementDecisionRecord rec;
  rec.time = 3.0;
  rec.is_map = true;
  rec.job = JobId(4);
  rec.task = 17;
  rec.node = NodeId(6);
  rec.candidates = 12;
  rec.p = 0.25;
  rec.outcome = trace::DecisionOutcome::kBernoulliReject;
  const std::vector<trace::PlacementDecisionRecord> decisions = {rec};
  const auto json = telemetry::to_chrome_trace({}, telemetry::Snapshot{},
                                               {}, decisions);
  EXPECT_NE(json.find("decision: bernoulli-reject"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"decision\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":6"), std::string::npos);
}

}  // namespace
}  // namespace mrs::driver
