// Golden outputs: four small streamed runs whose observability outputs
// must stay byte-identical to the files checked in under tests/golden/.
//
// Together the runs exercise every engine lifecycle event: job activation,
// deferral, rejection, abort and completion; map/reduce assignment
// (including speculative backups), readiness, shuffle completion, kills and
// finishes; stall timeouts and retries; node failure, recovery, blacklisting
// and release. Each run is checked on four outputs:
//   <case>.trace.csv      the CSV execution trace
//   <case>.causal.jsonl   the causal span/decision/blame JSONL
//   <case>.perfetto.json  the Chrome trace, without the host wall-clock
//                         timer slices (host time is not reproducible)
//   <case>.metrics.jsonl  counters, gauges, histograms and samples, without
//                         the host wall-clock timers
//
// On a mismatch the actual output is left next to the test binary (the
// failure message prints the path). After an intended change of output,
// copy those files over the goldens and review the diff.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mrs/driver/stream_experiment.hpp"

namespace mrs::driver {
namespace {

namespace fs = std::filesystem;

/// The base of every golden run: the paper's cluster model shrunk to a
/// few nodes, a Poisson stream of small Table II jobs, and every
/// observability output switched on.
StreamConfig base_case(std::size_t nodes, double rate, Seconds duration,
                       std::uint64_t seed) {
  StreamConfig s;
  s.base = paper_config({}, SchedulerKind::kPna, seed);
  s.base.nodes = nodes;
  s.base.sample_period = 30.0;
  s.arrivals.process = workload::ArrivalProcess::kPoisson;
  s.arrivals.rate_per_hour = rate;
  s.arrivals.duration = duration;
  s.arrivals.mix.map_count_scale = 0.02;
  s.arrivals.mix.reduce_count_scale = 0.02;
  s.warmup = 10.0;
  return s;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `text` without the lines containing `needle`.
std::string drop_lines(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) out += line + "\n";
  }
  return out;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = fs::path(PNATS_GOLDEN_DIR) / name;
  const fs::path out = fs::path(PNATS_GOLDEN_OUT_DIR) / name;
  std::ofstream(out, std::ios::binary) << actual;
  ASSERT_TRUE(fs::exists(golden)) << "missing golden " << golden
                                  << "; actual output written to " << out;
  EXPECT_TRUE(slurp(golden) == actual)
      << name << " differs from its golden " << golden
      << "; actual output written to " << out;
}

void check_case(const std::string& name, StreamConfig cfg) {
  const fs::path dir = fs::path(PNATS_GOLDEN_OUT_DIR) / (name + ".run");
  fs::create_directories(dir);
  cfg.base.trace_path = (dir / "trace.csv").string();
  cfg.base.causal_trace_path = (dir / "causal.jsonl").string();
  cfg.base.perfetto_path = (dir / "perfetto.json").string();
  cfg.base.telemetry_path = (dir / "metrics.jsonl").string();
  const StreamResult r = run_stream_experiment(cfg);
  ASSERT_TRUE(r.run.completed) << name;

  expect_golden(name + ".trace.csv", slurp(cfg.base.trace_path));
  expect_golden(name + ".causal.jsonl", slurp(cfg.base.causal_trace_path));
  expect_golden(name + ".perfetto.json",
                drop_lines(slurp(cfg.base.perfetto_path), "\"cat\":\"wall\""));
  expect_golden(name + ".metrics.jsonl",
                drop_lines(slurp(cfg.base.telemetry_path),
                           "\"type\":\"timer\""));
}

// Stragglers with speculative backups: backup launches, races won by
// either side.
TEST(Golden, Speculation) {
  StreamConfig cfg = base_case(4, 200.0, 100.0, 3);
  cfg.base.engine.fault.straggler_probability = 0.3;
  cfg.base.engine.fault.speculative_execution = true;
  check_case("speculation", cfg);
}

// Node failures with an attempt cap (aborts), blacklist probation,
// speculation (backups killed by failures) and a static admission
// threshold (deferrals and rejections).
TEST(Golden, Faults) {
  StreamConfig cfg = base_case(5, 400.0, 80.0, 9);
  cfg.base.engine.fault.straggler_probability = 0.3;
  cfg.base.engine.fault.speculative_execution = true;
  cfg.base.failures.cluster_mtbf = 12.0;
  cfg.base.engine.max_task_attempts = 2;
  cfg.base.engine.blacklist.enabled = true;
  cfg.base.admission.policy = control::AdmissionPolicyKind::kStaticThreshold;
  cfg.base.admission.max_jobs_in_system = 3.0;
  cfg.base.admission.deferral.max_deferrals = 1;
  check_case("faults", cfg);
}

// Link cuts under the transfer stall watchdog: map and reduce stall
// timeouts, each followed by a retry.
TEST(Golden, Chaos) {
  StreamConfig cfg = base_case(6, 200.0, 60.0, 1);
  cfg.base.racks = 3;
  cfg.base.net_faults.link_mtbf = 15.0;
  cfg.base.net_faults.link_repair_time = 30.0;
  cfg.base.engine.stall_timeout = 10.0;
  check_case("chaos", cfg);
}

// Two node classes: the lazily created hetero.class.<name>.* counters.
TEST(Golden, Hetero) {
  StreamConfig cfg = base_case(4, 200.0, 100.0, 9);
  hetero::NodeClass fast, slow;
  fast.name = "fast";
  fast.cpu_speed = 2.0;
  slow.name = "slow";
  slow.cpu_speed = 0.5;
  cfg.base.hetero.classes = {fast, slow};
  check_case("hetero", cfg);
}

}  // namespace
}  // namespace mrs::driver
