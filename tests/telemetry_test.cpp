// Tests for the telemetry subsystem: registry semantics, histogram edge
// cases, sim-time sampler alignment, export formats, and the determinism
// contract (serial vs parallel runs produce identical metric values).
#include <gtest/gtest.h>

#include <sstream>

#include "mrs/driver/experiment.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/telemetry/export.hpp"
#include "mrs/telemetry/perfetto.hpp"
#include "mrs/telemetry/registry.hpp"
#include "mrs/telemetry/sampler.hpp"

namespace mrs::telemetry {
namespace {

// --- registry ---

TEST(Registry, FindOrCreateReturnsStableObjects) {
  Registry r;
  Counter& a = r.counter("x");
  a.inc(3);
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  Gauge& g = r.gauge("g");
  g.set(1.5);
  EXPECT_EQ(&g, &r.gauge("g"));
  Histogram& h = r.histogram("h", 0.0, 1.0, 10);
  EXPECT_EQ(&h, &r.histogram("h", 0.0, 1.0, 10));
  TimerStat& t = r.timer("t");
  EXPECT_EQ(&t, &r.timer("t"));
}

TEST(Registry, SnapshotIsNameSortedAndComplete) {
  Registry r;
  r.counter("b.second").inc(2);
  r.counter("a.first").inc(1);
  r.gauge("z").set(4.0);
  r.histogram("h", 0.0, 1.0, 4).observe(0.5);
  r.timer("t").add_ns(100);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a.first");
  EXPECT_EQ(s.counters[1].name, "b.second");
  EXPECT_EQ(s.counter("a.first"), 1u);
  EXPECT_EQ(s.counter("b.second"), 2u);
  EXPECT_EQ(s.counter("missing"), 0u);  // absent -> 0, not a throw
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 4.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].counts[2], 1u);
  ASSERT_EQ(s.timers.size(), 1u);
  EXPECT_EQ(s.timers[0].total_ns, 100u);
}

TEST(Registry, NullTolerantHelpersAreNoOps) {
  inc(nullptr);
  inc(nullptr, 5);
  observe(nullptr, 1.0);
  set(nullptr, 2.0);
  { ScopedTimer t(nullptr); }  // must not crash or record
  Registry r;
  Counter& c = r.counter("c");
  inc(&c, 2);
  EXPECT_EQ(c.value(), 2u);
}

// --- histogram edge cases ---

TEST(Histogram, BucketBoundariesAndOverflow) {
  Histogram h(0.0, 1.0, 10);
  h.observe(-0.001);  // below lo -> underflow
  h.observe(0.0);     // exactly lo -> bucket 0
  h.observe(0.099999);
  h.observe(0.1);  // boundary belongs to the upper bucket
  h.observe(0.95);
  h.observe(0.9999999999);  // just under hi -> top bucket (clamped)
  h.observe(1.0);           // exactly hi -> overflow
  h.observe(42.0);

  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(0), 2u);  // 0.0 and 0.099999
  EXPECT_EQ(h.count(1), 1u);  // 0.1
  EXPECT_EQ(h.count(9), 2u);  // 0.95 and the clamped near-1.0
  EXPECT_EQ(h.total(), 8u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(9), 1.0);
}

TEST(Histogram, SingleBucketDegenerateCase) {
  Histogram h(5.0, 6.0, 1);
  h.observe(5.0);
  h.observe(5.999);
  h.observe(6.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.overflow(), 1u);
}

// --- sampler ---

TEST(Sampler, RowsAlignToPeriodAndStopOnDone) {
  sim::Simulation sim;
  // Keep the sim alive past the sampler with unrelated events.
  for (double t : {1.0, 7.0, 13.0}) sim.schedule_at(t, [] {});
  Sampler sampler(
      &sim, {"now", "twice"}, 5.0,
      [&sim](Seconds now, std::vector<double>& row) {
        row = {now, 2.0 * now};
      },
      [&sim] { return sim.now() >= 17.0; });
  sampler.start();
  sim.run(1e6);

  const TimeSeries& ts = sampler.series();
  ASSERT_EQ(ts.columns.size(), 2u);
  // Samples at 0,5,10,15 (done still false), one final at 20, then stop.
  ASSERT_EQ(ts.rows.size(), 5u);
  for (std::size_t i = 0; i < ts.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts.rows[i].t, 5.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(ts.rows[i].values[0], ts.rows[i].t);
    EXPECT_DOUBLE_EQ(ts.rows[i].values[1], 2.0 * ts.rows[i].t);
  }
  EXPECT_EQ(ts.column("twice"), 1u);
  EXPECT_EQ(ts.column("absent"), TimeSeries::npos);
}

TEST(Sampler, SliceImplementsWarmupWindow) {
  TimeSeries ts;
  ts.columns = {"v"};
  for (double t : {0.0, 10.0, 20.0, 30.0, 40.0}) {
    ts.rows.push_back({t, {t}});
  }
  // Measurement window [warmup, end): drops warmup rows and the tail.
  const TimeSeries win = ts.slice(10.0, 40.0);
  ASSERT_EQ(win.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(win.rows.front().t, 10.0);
  EXPECT_DOUBLE_EQ(win.rows.back().t, 30.0);
  EXPECT_EQ(win.columns, ts.columns);
  EXPECT_TRUE(ts.slice(100.0, 200.0).empty());
}

// --- experiment integration & determinism ---

driver::ExperimentConfig tiny_config(std::uint64_t seed) {
  using mapreduce::JobKind;
  std::vector<workload::JobDescription> jobs = {
      {"t1", "Wordcount_tiny", JobKind::kWordcount, 1, 12, 6},
      {"t2", "Terasort_tiny", JobKind::kTerasort, 1, 10, 5},
  };
  driver::ExperimentConfig cfg =
      driver::paper_config(std::move(jobs), driver::SchedulerKind::kPna,
                           seed);
  cfg.nodes = 8;
  cfg.sample_period = 5.0;
  return cfg;
}

void expect_same_deterministic_metrics(const Snapshot& a,
                                       const Snapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name);
    EXPECT_EQ(a.counters[i].value, b.counters[i].value)
        << a.counters[i].name;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].counts, b.histograms[i].counts)
        << a.histograms[i].name;
    EXPECT_EQ(a.histograms[i].underflow, b.histograms[i].underflow);
    EXPECT_EQ(a.histograms[i].overflow, b.histograms[i].overflow);
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.gauges[i].value, b.gauges[i].value)
        << a.gauges[i].name;
  }
  // Timers (wall clock) are intentionally excluded: non-deterministic.
}

TEST(TelemetryIntegration, EngineAndSchedulerCountersAreCoherent) {
  const auto result = driver::run_experiment(tiny_config(42));
  ASSERT_TRUE(result.completed);
  const Snapshot& s = result.telemetry;

  EXPECT_EQ(s.counter("engine.jobs.activated"), 2u);
  EXPECT_EQ(s.counter("engine.jobs.finished"), 2u);
  // Locality split sums to assigned maps; every first-attempt map came
  // through the scheduler.
  const std::uint64_t maps = s.counter("engine.maps.assigned");
  EXPECT_GE(maps, 22u);  // 12 + 10, more if attempts were killed/retried
  EXPECT_EQ(s.counter("engine.maps.locality.node") +
                s.counter("engine.maps.locality.rack") +
                s.counter("engine.maps.locality.remote"),
            maps);
  EXPECT_EQ(s.counter("engine.reduces.locality.node") +
                s.counter("engine.reduces.locality.rack") +
                s.counter("engine.reduces.locality.remote"),
            s.counter("engine.reduces.assigned"));
  EXPECT_GT(s.counter("engine.heartbeats"), 0u);
  EXPECT_GT(s.counter("pna.map.attempts"), 0u);
  EXPECT_GT(s.counter("pna.reduce.attempts"), 0u);

  // The P histogram counts every scored decision: one entry per non-empty
  // candidate scan.
  std::uint64_t p_total = 0;
  for (const auto& h : s.histograms) {
    if (h.name == "pna.map.p" || h.name == "pna.reduce.p") {
      for (auto c : h.counts) p_total += c;
      p_total += h.underflow + h.overflow;
      EXPECT_EQ(h.underflow, 0u) << h.name;  // P is never negative
    }
  }
  EXPECT_GT(p_total, 0u);

  // Sampler ran: rows every 5 sim-seconds from 0, gauges mirror the last
  // row.
  ASSERT_FALSE(result.samples.empty());
  EXPECT_DOUBLE_EQ(result.samples.rows[0].t, 0.0);
  if (result.samples.rows.size() > 1) {
    EXPECT_DOUBLE_EQ(result.samples.rows[1].t, 5.0);
  }
  const std::size_t done = result.samples.column("jobs_completed");
  ASSERT_NE(done, TimeSeries::npos);
  EXPECT_DOUBLE_EQ(result.samples.rows.back().values[done], 2.0);
}

TEST(TelemetryIntegration, SerialAndParallelRunsAgree) {
  const auto serial = driver::run_experiment(tiny_config(7));
  std::vector<driver::ExperimentConfig> cfgs = {tiny_config(7),
                                                tiny_config(7)};
  const auto parallel = driver::run_experiments(cfgs);
  ASSERT_EQ(parallel.size(), 2u);
  expect_same_deterministic_metrics(serial.telemetry,
                                    parallel[0].telemetry);
  expect_same_deterministic_metrics(serial.telemetry,
                                    parallel[1].telemetry);
  ASSERT_EQ(serial.samples.rows.size(), parallel[0].samples.rows.size());
  for (std::size_t i = 0; i < serial.samples.rows.size(); ++i) {
    EXPECT_EQ(serial.samples.rows[i].values,
              parallel[0].samples.rows[i].values);
  }
}

TEST(TelemetryIntegration, DetachedRunHasNoTelemetryCost) {
  // sample_period = 0 and no paths: result carries an empty series and the
  // run still completes (all metric pointers stay null on the hot path —
  // the registry snapshot only ever contains the driver's run timer).
  auto cfg = tiny_config(42);
  cfg.sample_period = 0.0;
  const auto result = driver::run_experiment(cfg);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.samples.empty());
}

// --- exporters ---

Snapshot example_snapshot() {
  Registry r;
  r.counter("c.events").inc(3);
  r.gauge("g.depth").set(2.5);
  Histogram& h = r.histogram("h.p", 0.0, 1.0, 4);
  h.observe(0.1);
  h.observe(0.9);
  h.observe(2.0);
  r.timer("t.wall").add_ns(1500000);
  return r.snapshot();
}

TimeSeries example_series() {
  TimeSeries ts;
  ts.columns = {"depth", "util"};
  ts.rows.push_back({0.0, {1.0, 0.25}});
  ts.rows.push_back({10.0, {3.0, 0.75}});
  return ts;
}

TEST(JsonlExport, EveryLineIsABalancedObjectWithType) {
  const std::string doc = to_jsonl(example_snapshot(), example_series());
  std::istringstream in(doc);
  std::string line;
  std::size_t lines = 0, samples = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    // Balanced braces and quotes on each line (no raw newline leaked).
    int depth = 0;
    std::size_t quotes = 0;
    for (char c : line) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      if (c == '"') ++quotes;
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0u);
    if (line.find("\"type\":\"sample\"") != std::string::npos) ++samples;
  }
  EXPECT_EQ(samples, 2u);
  // 2 samples + counter + gauge + histogram + timer.
  EXPECT_EQ(lines, 6u);
  EXPECT_NE(doc.find("\"c.events\""), std::string::npos);
  EXPECT_NE(doc.find("\"value\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"overflow\":1"), std::string::npos);
}

/// Event of job 0 ("job1"), as the engine emits it.
mapreduce::EngineEvent job1_event(mapreduce::EventKind kind, Seconds time,
                                  bool is_map = true, std::size_t task = 0,
                                  std::size_t node = 0, bool backup = false) {
  return {.kind = kind,
          .time = time,
          .job = JobId(0),
          .job_name = "job1",
          .is_map = is_map,
          .backup = backup,
          .task = task,
          .node = NodeId(node)};
}

TEST(PerfettoExport, EmitsBalancedJsonWithSlicesAndCounters) {
  using mapreduce::EventKind;
  const std::vector<mapreduce::EngineEvent> events = {
      job1_event(EventKind::kJobActivated, 0.0),
      job1_event(EventKind::kTaskAssigned, 1.0, true, 0, 2),
      job1_event(EventKind::kTaskFinished, 4.0, true, 0, 2),
      job1_event(EventKind::kTaskAssigned, 2.0, false, 0, 1),
      job1_event(EventKind::kTaskKilled, 5.5, false, 0, 1),
      job1_event(EventKind::kTaskAssigned, 3.0, true, 1, 0, /*backup=*/true),
      job1_event(EventKind::kJobFinished, 6.0),
  };
  const std::string doc =
      to_chrome_trace(events, example_snapshot(), example_series());

  // Structurally balanced JSON document.
  int braces = 0, brackets = 0;
  for (char c : doc) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(doc.substr(0, 16), "{\"traceEvents\":[");
  const std::size_t last = doc.find_last_not_of("\n ");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(doc[last], '}');

  // Complete slices for the map (assigned->finished) and the killed
  // reduce, with sim seconds scaled to microseconds.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":3000000"), std::string::npos);  // 3 s map
  // Instant for the speculative launch, counters from the series, and
  // process-name metadata.
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

TEST(PerfettoExport, UnpairedAssignIsTolerated) {
  // An assignment with no finish (run truncated) must not corrupt the
  // document.
  const std::vector<mapreduce::EngineEvent> events = {
      job1_event(mapreduce::EventKind::kTaskAssigned, 1.0)};
  const std::string doc =
      to_chrome_trace(events, Snapshot{}, TimeSeries{});
  int braces = 0;
  for (char c : doc) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
  }
  EXPECT_EQ(braces, 0);
}

}  // namespace
}  // namespace mrs::telemetry
