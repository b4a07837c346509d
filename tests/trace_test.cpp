// Tests for the execution trace subsystem.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "mrs/common/csv.hpp"
#include "mrs/sched/fifo.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "test_harness.hpp"

namespace mrs::mapreduce {
namespace {

using mrs::testing::MiniCluster;

TEST(Trace, EngineEmitsLifecycleEvents) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(6, 3);
  MemoryTraceSink sink;
  h.engine.add_observer(&sink);
  sched::FifoScheduler fifo;
  h.run(fifo);
  ASSERT_TRUE(h.engine.all_jobs_complete());

  EXPECT_EQ(sink.count("job-activated"), 1u);
  EXPECT_EQ(sink.count("job-finished"), 1u);
  EXPECT_EQ(sink.count("map-assigned"), job.map_count());
  EXPECT_EQ(sink.count("map-finished"), job.map_count());
  EXPECT_EQ(sink.count("reduce-assigned"),
            job.reduce_count());
  EXPECT_EQ(sink.count("reduce-finished"),
            job.reduce_count());
  EXPECT_EQ(sink.count("map-killed"), 0u);
  EXPECT_EQ(sink.count("node-failed"), 0u);
}

TEST(Trace, EventsAreTimeOrdered) {
  MiniCluster h(3);
  h.submit_job(8, 2);
  MemoryTraceSink sink;
  h.engine.add_observer(&sink);
  sched::FifoScheduler fifo;
  h.run(fifo);
  const auto& events = sink.events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
  // First event is the job activation, last its completion.
  EXPECT_EQ(events.front().kind, EventKind::kJobActivated);
  EXPECT_EQ(events.back().kind, EventKind::kJobFinished);
}

TEST(Trace, SubjectsNameJobAndTask) {
  MiniCluster h(3);
  h.submit_job(2, 1);
  MemoryTraceSink sink;
  h.engine.add_observer(&sink);
  sched::FifoScheduler fifo;
  h.run(fifo);
  bool saw_map = false;
  for (const auto& e : sink.events()) {
    const auto row = trace_row(e);
    if (row && std::string_view(row->kind) == "map-assigned") {
      EXPECT_NE(row->subject.find("/map/"), std::string::npos);
      EXPECT_NE(row->detail.find("node="), std::string::npos);
      EXPECT_NE(row->detail.find("locality="), std::string::npos);
      saw_map = true;
    }
  }
  EXPECT_TRUE(saw_map);
}

TEST(Trace, FailureEventsRecorded) {
  MiniCluster h(4);
  h.submit_job(10, 2);
  MemoryTraceSink sink;
  h.engine.add_observer(&sink);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.schedule_at(2.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.schedule_at(30.0, [&] { h.engine.recover_node(NodeId(0)); });
  h.sim.run(1e6);
  EXPECT_EQ(sink.count("node-failed"), 1u);
  EXPECT_EQ(sink.count("node-recovered"), 1u);
  EXPECT_GT(sink.count("map-killed") +
                sink.count("reduce-killed"),
            0u);
}

TEST(Trace, CsvSinkWritesRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_trace_test.csv")
          .string();
  {
    MiniCluster h(3);
    h.submit_job(3, 1);
    CsvTraceSink sink(path);
    h.engine.add_observer(&sink);
    sched::FifoScheduler fifo;
    h.run(fifo);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,kind,subject,detail");
  std::size_t rows = 0;
  bool saw_finished = false;
  while (std::getline(in, line)) {
    ++rows;
    if (line.find("job-finished") != std::string::npos) saw_finished = true;
  }
  EXPECT_GE(rows, 3u + 1u + 2u);  // at least one event per task + job
  EXPECT_TRUE(saw_finished);
  std::remove(path.c_str());
}

// The CSV trace must survive hostile job names: commas, quotes and
// embedded newlines have to come back byte-identical through CsvReader.
TEST(Trace, CsvDetailRoundTripsThroughReader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_trace_roundtrip.csv")
          .string();
  const std::vector<EngineEvent> events = {
      {.kind = EventKind::kTaskAssigned,
       .time = 1.5,
       .job = JobId(0),
       .job_name = "job A, \"quoted\"\nsecond line",
       .node = NodeId(3),
       .locality = Locality::kNodeLocal},
      {.kind = EventKind::kTaskKilled,
       .time = 2.25,
       .job = JobId(0),
       .job_name = "job A, \"quoted\"\nsecond line",
       .node = NodeId(3)},
      {.kind = EventKind::kJobFinished,
       .time = 3.0,
       .job = JobId(1),
       .job_name = "job \"A\", the first",
       .submit = 1.0},
  };
  {
    CsvTraceSink sink(path);
    for (const auto& e : events) sink.on_event(e);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  CsvReader reader(in);
  std::vector<std::string> f;
  ASSERT_TRUE(reader.row(f));
  EXPECT_EQ(f, (std::vector<std::string>{"time", "kind", "subject",
                                         "detail"}));
  for (const auto& e : events) {
    ASSERT_TRUE(reader.row(f));
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(std::stod(f[0]), e.time);
    const auto row = trace_row(e);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(f[1], row->kind);
    EXPECT_EQ(f[2], row->subject);
    EXPECT_EQ(f[3], row->detail);
  }
  EXPECT_FALSE(reader.row(f));
  std::remove(path.c_str());
}

// Every observer of a run is handed the same event sequence, including the
// events the CSV trace leaves out (readiness, shuffle completion).
TEST(Trace, ObserversSeeTheSameSequence) {
  MiniCluster h(4);
  h.submit_job(10, 2);
  MemoryTraceSink a, b;
  h.engine.add_observer(&a);
  h.engine.add_observer(&b);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.schedule_at(2.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.schedule_at(30.0, [&] { h.engine.recover_node(NodeId(0)); });
  h.sim.run(1e6);
  ASSERT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_GT(a.count("node-failed"), 0u);
  EXPECT_GT(a.events().size(),
            a.count("map-assigned") + a.count("map-finished") +
                a.count("reduce-assigned") + a.count("reduce-finished"));
}

TEST(Trace, NoSinkNoCrash) {
  MiniCluster h(3);
  h.submit_job(4, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);  // no sink installed: tracing is a no-op
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

}  // namespace
}  // namespace mrs::mapreduce
