// The benchmark's workloads and the two ways it runs them.
//
// Untraced passes go through the public driver API exactly as a user's
// sweep would (driver::run_experiment / run_experiment_streamed) and feed
// the end-to-end metrics. Traced passes rebuild the same stack from the
// public classes, mirroring driver::run_experiment, with timing decorators
// around the scheduler, the distance provider and the arrival source, and
// drive the clock one Simulation::step() at a time so each step's host time
// can be attributed to a layer. The traced run must reproduce the untraced
// records bit for bit; every pass's records are checked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mrs/driver/experiment.hpp"
#include "mrs/workload/trace_gen.hpp"

namespace perfbench {

enum class WorkloadKind { kPaperBatch, kFattreeBatch, kTraceReplay };

/// kFull is the benchmark; kTiny shrinks each workload to a fraction of a
/// second, keeping its shape (topology, scheduler, streaming), for the
/// self-test.
enum class Size { kFull, kTiny };

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kPaperBatch;
  /// Batch workloads carry their jobs here; trace-replay leaves jobs empty
  /// and streams arrivals from `trace_path`.
  mrs::driver::ExperimentConfig config;
  mrs::workload::TraceGenConfig gen;  ///< trace-replay only
  mrs::Seconds warmup = 0.0;          ///< trace-replay steady window start
  mrs::Seconds lookahead = 30.0;      ///< trace-replay streaming pump
  std::string trace_path;             ///< trace-replay only
  std::size_t jobs_submitted = 0;     ///< jobs the pass must account for

  [[nodiscard]] bool streamed() const {
    return kind == WorkloadKind::kTraceReplay;
  }
};

/// Names accepted by make_workload, in benchmark order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` for `seed`. For trace-replay this generates the
/// trace from the seed and writes it under `tmp_dir` (delete it with
/// remove_inputs). Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     std::uint64_t seed, Size size,
                                     const std::string& tmp_dir);

/// Delete the files make_workload wrote (no-op for batch workloads).
void remove_inputs(const Workload& w);

/// What one pass produced, reduced to the checked quantities and the
/// simulated metrics. `digest` covers every field of every job and task
/// record plus events_processed, so equal digests mean bit-identical runs.
struct Outcome {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t aborted = 0;
  std::size_t unfinished = 0;
  bool drained = false;
  std::size_t events = 0;
  std::size_t task_records = 0;
  std::uint64_t digest = 0;

  double makespan_s = 0.0;  ///< simulated: last job finish
  double response_p50_s = 0.0;
  double goodput_jobs_per_h = 0.0;
  double map_node_local_pct = 0.0;
  double network_gb = 0.0;  ///< sum of TaskRecord::network_bytes
  double data_gb = 0.0;     ///< sum of the jobs' input and shuffle bytes

  /// Failed output checks, one line each; empty when the pass is correct.
  std::vector<std::string> failures;

  /// Jobs not completed plus failed checks (the numerator of
  /// jobs_failed_frac).
  [[nodiscard]] std::size_t failed() const {
    return (submitted - std::min(submitted, completed)) + failures.size();
  }
};

/// The simulated metrics of a finished run: what a user reads off it (the
/// steady-state summary on trace-replay). Timed as the run's result step.
[[nodiscard]] Outcome summarize(
    const Workload& w, const mrs::driver::ExperimentResult& run);

/// Fill the accounting fields and digest of `o` and run the output checks:
/// the run drained, completed + rejected + aborted + unfinished equals
/// submitted, and every task of every job left exactly one record.
void check_outputs(const Workload& w, const mrs::driver::ExperimentResult& run,
                   Outcome& o);

struct UntracedPass {
  Outcome outcome;
  double run_s = 0.0;      ///< simulation wall + result summary
  double summary_s = 0.0;  ///< the result summary alone
};

/// One pass through the public driver API, tracing off.
[[nodiscard]] UntracedPass run_untraced(const Workload& w);

/// Per-layer host time and work counts of one traced pass. Times are in
/// seconds. The step layers (sched_self_s, distance_s, flow_s,
/// mapreduce_s, next_s) plus residual_s sum to step_s.
struct LayerProfile {
  // set-up (before the clock starts; see time_setup)
  double setup_s = 0.0;
  double topology_s = 0.0;    ///< topology and routes
  double hop_matrix_s = 0.0;  ///< distance provider (the hop matrix)
  double cluster_s = 0.0;
  double make_batch_s = 0.0;  ///< DFS placement and job specs
  double setup_rss_mib = 0.0;

  // the stepped run
  double loop_s = 0.0;  ///< wall of the whole stepping loop
  double step_s = 0.0;  ///< sum of Simulation::step() spans
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;

  double sched_self_s = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t useful_heartbeats = 0;  ///< placed at least one task

  double distance_s = 0.0;  ///< estimated from a 1-in-N timed sample
  std::uint64_t distance_queries = 0;

  double flow_s = 0.0;
  std::uint64_t flow_events = 0;  ///< steps that changed the flow state
  std::uint64_t peak_active_flows = 0;

  double mapreduce_s = 0.0;

  double next_s = 0.0;  ///< ArrivalSource::next inside the loop
  std::uint64_t arrivals = 0;

  /// Step time no layer could take: a step whose sampled distance
  /// estimate exceeded its own span. Zero or negative.
  double residual_s = 0.0;

  double summary_s = 0.0;  ///< result summary after the run

  std::uint64_t map_cost_evals = 0;
  std::uint64_t reduce_cost_evals = 0;
  std::uint64_t offers = 0;   ///< PNA map + reduce attempts
  std::uint64_t rejects = 0;  ///< P_min skips + lost Bernoulli draws
  std::uint64_t task_records = 0;

  /// Sum of the step layers' self times plus the residual.
  [[nodiscard]] double attributed_s() const {
    return sched_self_s + distance_s + flow_s + mapreduce_s + next_s +
           residual_s;
  }
};

struct TracedPass {
  Outcome outcome;
  LayerProfile layers;
};

/// One traced pass over the rebuilt stack.
[[nodiscard]] TracedPass run_traced(const Workload& w);

/// Host seconds to build the stack up to the clock start (topology and
/// routes, distances, cluster, DFS placement, job specs, submission),
/// without running it. Streamed arrivals, even those submitted before the
/// clock starts, are not set-up.
[[nodiscard]] double time_setup(const Workload& w);

/// Current and peak resident set size of this process, in MiB.
[[nodiscard]] double rss_mib();
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
