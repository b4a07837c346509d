// Self-test of the benchmark at a tiny size of each workload:
//  - untraced and traced passes pass every output check;
//  - the traced stack reproduces driver::run_experiment's records and event
//    count bit for bit, and a repeated pass reproduces them again;
//  - another seed gives other records (the seed reaches the run);
//  - the step layers' self times plus the residual sum to the step total;
//  - the generated trace file is removed afterwards.
// Prints every failed check and exits non-zero if there was any.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what, const std::string& workload) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL [%s] %s\n", workload.c_str(), what.c_str());
}

void test_workload(const std::string& name, const std::string& tmp) {
  const Workload w = make_workload(name, 7, Size::kTiny, tmp);
  const Workload other = make_workload(name, 8, Size::kTiny, tmp);
  expect(w.jobs_submitted > 0, "workload has jobs", name);

  const UntracedPass u = run_untraced(w);
  const UntracedPass again = run_untraced(w);
  const TracedPass t = run_traced(w);
  const UntracedPass u8 = run_untraced(other);
  for (const auto& f : u.outcome.failures) {
    expect(false, "untraced: " + f, name);
  }
  for (const auto& f : t.outcome.failures) expect(false, "traced: " + f, name);
  expect(u.outcome.drained && t.outcome.drained, "runs drain", name);
  expect(u.outcome.completed == w.jobs_submitted, "every job completes",
         name);
  expect(t.outcome.digest == u.outcome.digest,
         "traced records == untraced records", name);
  expect(t.outcome.events == u.outcome.events,
         "traced events_processed == untraced", name);
  expect(again.outcome.digest == u.outcome.digest,
         "same seed, same records", name);
  expect(u8.outcome.digest != u.outcome.digest,
         "another seed, other records", name);

  const LayerProfile& L = t.layers;
  const double gap = std::abs(L.attributed_s() - L.step_s);
  expect(gap <= 1e-9 + 1e-12 * L.step_s,
         "layer self times + residual == step total (gap " +
             std::to_string(gap) + " s)",
         name);
  expect(L.residual_s <= 0.0, "residual is never positive", name);
  expect(L.step_s <= L.loop_s, "steps fit inside the loop", name);
  expect(L.events == u.outcome.events, "layer event count", name);
  expect(L.heartbeats > 0 && L.useful_heartbeats > 0 &&
             L.useful_heartbeats <= L.heartbeats,
         "heartbeat counts", name);
  expect(L.distance_queries > 0, "distance queries counted", name);
  expect(L.flow_events > 0 && L.flow_events <= L.events, "flow events",
         name);
  expect(L.task_records == u.outcome.task_records, "task record count",
         name);
  if (w.streamed()) {
    expect(L.arrivals == w.jobs_submitted, "every arrival pulled once", name);
  }

  remove_inputs(w);
  remove_inputs(other);
  if (w.streamed()) {
    expect(!std::filesystem::exists(w.trace_path), "trace file removed",
           name);
  }
  std::printf("%-14s %s (%zu jobs, %zu events, step %.3fs)\n", name.c_str(),
              failures == 0 ? "ok" : "FAILED", w.jobs_submitted,
              u.outcome.events, L.step_s);
}

}  // namespace

int main() {
  const std::string tmp =
      (std::filesystem::current_path() / "perfbench_selftest_tmp").string();
  for (const auto& name : workload_names()) test_workload(name, tmp);
  std::filesystem::remove_all(tmp);
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
