// pnats_perfbench: run one benchmark workload and print its metrics.
//
//   pnats_perfbench --workload <paper-batch|fattree-batch|trace-replay>
//                   --seed <n> --seconds <s> --trace <0|1> [--tmp-dir <dir>]
//
// --trace 0 measures the end-to-end metrics: untraced passes through the
// public driver API, repeated while another fits in --seconds (at least
// kMinPasses). Host times are scaled by a reference kernel timed next to
// each pass (reference.hpp); run_s is the fastest scaled pass and setup_s
// the median scaled set-up. Simulated metrics are exact for the seed.
// --trace 1 measures the per-layer metrics: traced passes over the rebuilt
// stack, alternated with untraced reference passes whose records each
// traced pass must reproduce bit for bit.
//
// Every pass is checked (see check_outputs); all passes of one seed must
// produce identical records. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; attempted counts jobs
// submitted over all passes and failed counts jobs not completed plus
// failed checks. The exit code is 0 only when every check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "reference.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;
/// Set-ups are repeated until this much time went into them per pass.
constexpr double kSetupBudgetPerPass = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp_dir = ".bench_build/tmp";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pnats_perfbench: %s\nusage: pnats_perfbench --workload "
               "<paper-batch|fattree-batch|trace-replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--tmp-dir") {
      a.tmp_dir = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Another iteration as long as the last one still ends within `budget`
/// seconds of `t0`, so a run takes about --seconds whatever the pass length.
bool fits(Clock::time_point t0, double last, double budget) {
  return seconds_since(t0) + last <= budget;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Accumulates correctness over every pass of the run.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;  ///< of the first pass; all must match
  bool have_digest = false;

  void add(const Outcome& o, const char* what) {
    attempted += o.submitted;
    failed += o.failed();
    for (const auto& f : o.failures) {
      std::fprintf(stderr, "CHECK FAILED (%s pass): %s\n", what, f.c_str());
    }
    if (!have_digest) {
      digest = o.digest;
      have_digest = true;
    } else if (o.digest != digest) {
      ++failed;
      std::fprintf(stderr,
                   "CHECK FAILED (%s pass): records differ from the first "
                   "pass of the same seed\n",
                   what);
    }
  }
};

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += v.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted);
  json += ", \"failed\": " + std::to_string(v.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> end_to_end(const Workload& w, const Args& args,
                               Verdict& verdict) {
  const auto t0 = Clock::now();
  // A warm-up pass in a fresh process, before anything else is allocated,
  // so the peak RSS is that of one run.
  const UntracedPass first = run_untraced(w);
  verdict.add(first.outcome, "untraced");
  const double peak_rss = peak_rss_mib();

  // Every later pass and its set-ups are scaled by the reference kernel
  // timed right before and right after them.
  HostReference reference;
  std::vector<double> runs, setups, batch;
  double last = seconds_since(t0);
  while (runs.size() < kMinPasses || fits(t0, last, args.seconds)) {
    const auto s0 = Clock::now();
    const double before = reference.time_s();
    const auto s1 = Clock::now();
    batch.clear();
    do {
      batch.push_back(time_setup(w));
    } while (seconds_since(s1) < kSetupBudgetPerPass);
    const UntracedPass p = run_untraced(w);
    verdict.add(p.outcome, "untraced");
    const double ref = 0.5 * (before + reference.time_s());
    for (double s : batch) setups.push_back(HostReference::scale(s, ref));
    runs.push_back(HostReference::scale(p.run_s, ref));
    last = seconds_since(s0);
    std::fprintf(stderr,
                 "pass %zu: run %.4fs, reference %.4fs, scaled run %.4fs\n",
                 runs.size(), p.run_s, ref, runs.back());
  }

  const Outcome& o = first.outcome;
  const double run_s = *std::min_element(runs.begin(), runs.end());
  return {
      {"setup_s", median(setups), "s"},
      {"run_s", run_s, "s"},
      {"sim_s_per_host_s", ratio(o.makespan_s, run_s), "sim_s/s"},
      {"tasks_per_host_s",
       ratio(static_cast<double>(o.task_records), run_s), "1/s"},
      {"peak_rss_mib", peak_rss, "MiB"},
      {"sim_makespan_s", o.makespan_s, "sim_s"},
      {"sim_response_p50_s", o.response_p50_s, "sim_s"},
      {"sim_goodput_jobs_per_h", o.goodput_jobs_per_h, "jobs/h"},
      {"sim_network_pct", 100.0 * ratio(o.network_gb, o.data_gb), "%"},
  };
}

/// Step layers grouped the way the workloads were chosen: the heartbeat
/// path (scheduler scoring and the distance queries it makes), the flow
/// solver, and the event loop with engine bookkeeping and streaming ingest.
struct Group {
  const char* name;
  double self_s;
};

std::vector<Group> groups(const LayerProfile& L) {
  return {{"heartbeat path", L.sched_self_s + L.distance_s},
          {"net.flow", L.flow_s},
          {"sim+mapreduce", L.mapreduce_s + L.next_s}};
}

/// The group expected to dominate each workload's step time.
const char* predicted_group(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kPaperBatch: return "heartbeat path";
    case WorkloadKind::kFattreeBatch: return "net.flow";
    case WorkloadKind::kTraceReplay: return "sim+mapreduce";
  }
  return "?";
}

void print_layer_table(const Workload& w, const LayerProfile& L) {
  const auto row = [&L](const char* name, double self_s) {
    std::printf("  %-16s %10.4f %7.1f%%\n", name, self_s,
                100.0 * ratio(self_s, L.step_s));
  };
  std::printf("\nper-layer self time of the traced run (%s)\n",
              w.name.c_str());
  std::printf("  %-16s %10s %8s\n", "layer", "self s", "of steps");
  row("sched", L.sched_self_s);
  row("net.distance", L.distance_s);
  row("net.flow", L.flow_s);
  row("mapreduce", L.mapreduce_s);
  row("workload", L.next_s);
  row("residual", L.residual_s);
  row("sim.step (sum)", L.step_s);
  std::printf("  %-16s %10.4f   (%.2f%% outside steps)\n", "loop wall",
              L.loop_s, 100.0 * ratio(L.loop_s - L.step_s, L.loop_s));
  const auto gs = groups(L);
  const Group* top = &gs.front();
  for (const auto& g : gs) {
    row(g.name, g.self_s);
    if (g.self_s > top->self_s) top = &g;
  }
  const std::string predicted = predicted_group(w.kind);
  std::printf("dominant: %s (predicted %s) -> %s\n", top->name,
              predicted.c_str(),
              predicted == top->name ? "confirmed" : "MISMATCH");
}

std::vector<Metric> per_layer(const Workload& w, const Args& args,
                              Verdict& verdict) {
  // Traced first, so the set-up RSS is that of a fresh process.
  std::vector<TracedPass> traced;
  std::vector<double> untraced_wall;
  double setup_rss = 0.0;
  const auto t0 = Clock::now();
  double last = 0.0;
  while (traced.empty() || fits(t0, last, args.seconds)) {
    const auto s0 = Clock::now();
    TracedPass t = run_traced(w);
    verdict.add(t.outcome, "traced");
    if (traced.empty()) setup_rss = t.layers.setup_rss_mib;
    const UntracedPass u = run_untraced(w);
    verdict.add(u.outcome, "untraced");
    untraced_wall.push_back(u.run_s - u.summary_s);
    traced.push_back(std::move(t));
    last = seconds_since(s0);
  }
  const TracedPass& best = *std::min_element(
      traced.begin(), traced.end(), [](const auto& a, const auto& b) {
        return a.layers.loop_s < b.layers.loop_s;
      });
  const LayerProfile& L = best.layers;
  print_layer_table(w, L);

  const double untraced =
      *std::min_element(untraced_wall.begin(), untraced_wall.end());
  // Host speed during the run, in the units end-to-end times are scaled by.
  HostReference reference;
  std::vector<double> refs;
  for (int i = 0; i < 3; ++i) refs.push_back(reference.time_s());
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  return {
      {"sched.heartbeats", count(L.heartbeats), "count"},
      {"sched.self_s", L.sched_self_s, "s"},
      {"sched.useful_ratio",
       ratio(count(L.useful_heartbeats), count(L.heartbeats)), "ratio"},
      {"core.reduce_cost_evals", count(L.reduce_cost_evals), "count"},
      {"core.map_cost_evals", count(L.map_cost_evals), "count"},
      {"core.reject_ratio", ratio(count(L.rejects), count(L.offers)),
       "ratio"},
      {"net.distance.queries", count(L.distance_queries), "count"},
      {"net.distance_s", L.distance_s, "s"},
      {"net.flow.events", count(L.flow_events), "count"},
      {"net.flow.step_s", L.flow_s, "s"},
      {"net.flow.peak_active", count(L.peak_active_flows), "count"},
      {"sim.events", count(L.events), "count"},
      {"sim.step_s", L.step_s, "s"},
      {"sim.ns_per_event", 1e9 * ratio(L.step_s, count(L.events)), "ns"},
      {"sim.peak_pending", count(L.peak_pending), "count"},
      {"mapreduce.step_s", L.mapreduce_s, "s"},
      {"mapreduce.task_records", count(L.task_records), "count"},
      {"mapreduce.map_node_local_pct", best.outcome.map_node_local_pct, "%"},
      {"net.network_gb", best.outcome.network_gb, "GB"},
      {"workload.arrivals", count(L.arrivals), "count"},
      {"workload.next_s", L.next_s, "s"},
      {"workload.make_batch_s", L.make_batch_s, "s"},
      {"metrics.summary_s", L.summary_s, "s"},
      {"mem.setup_rss_mib", setup_rss, "MiB"},
      {"net.topology_s", L.topology_s, "s"},
      {"net.hop_matrix_s", L.hop_matrix_s, "s"},
      {"cluster.build_s", L.cluster_s, "s"},
      {"host.reference_s", median(refs), "s"},
      {"trace.overhead_frac", ratio(L.loop_s, untraced) - 1.0, "frac"},
      {"trace.unattributed_frac",
       ratio(L.loop_s - L.attributed_s(), L.loop_s), "frac"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    // Benchmark input (the trace file) is made before any timing.
    const Workload w = make_workload(args.workload, args.seed, Size::kFull,
                                     args.tmp_dir);
    std::printf("workload %s seed %llu: %zu jobs, %zu nodes%s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.jobs_submitted, w.config.nodes,
                w.streamed() ? ", streamed from a generated trace" : "");
    Verdict verdict;
    std::vector<Metric> metrics;
    try {
      metrics = args.trace ? per_layer(w, args, verdict)
                           : end_to_end(w, args, verdict);
    } catch (...) {
      remove_inputs(w);
      throw;
    }
    remove_inputs(w);
    print_result(verdict, metrics);
    return verdict.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnats_perfbench: %s\n", e.what());
    return 2;
  }
}
