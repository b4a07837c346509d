// Open-loop streaming experiment runner.
//
// Where run_experiment replays a fixed closed batch (makespan regime),
// run_stream_experiment offers the cluster a continuous arrival stream:
// arrivals are pre-drawn for the configured horizon (deterministic per
// (seed, arrival config), scheduler-independent), submitted at their drawn
// times, and the simulation runs until the backlog drains. Steady-state
// metrics are evaluated over the measurement window
// [warmup, arrivals.duration) only, so warmup transients and the final
// drain tail do not pollute the stationary numbers.
#pragma once

#include <span>
#include <vector>

#include "mrs/driver/experiment.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "mrs/workload/arrivals.hpp"

namespace mrs::driver {

struct StreamConfig {
  /// Cluster / engine / scheduler configuration. `base.jobs` and
  /// `base.submit_times` are overwritten from the arrival stream;
  /// `base.max_sim_time` still bounds the drain.
  ExperimentConfig base;
  workload::ArrivalConfig arrivals;
  /// Jobs arriving before this are warmup: they run (they load the
  /// cluster) but are excluded from the steady-state window. Must be
  /// < arrivals.duration.
  Seconds warmup = 0.0;
  /// kTrace only: stream the trace file through TraceStreamReader and
  /// run_experiment_streamed instead of buffering every arrival — the
  /// memory-bounded path for production-scale traces. The trace must be
  /// time-sorted on disk. StreamResult::arrivals stays empty.
  bool stream_trace = false;
  /// How far ahead of the clock streamed arrivals are submitted (see
  /// run_experiment_streamed).
  Seconds stream_lookahead = 30.0;
};

struct StreamResult {
  /// The underlying run over the whole stream (warmup + measurement +
  /// drain). `run.completed` == the backlog drained within max_sim_time.
  ExperimentResult run;
  /// The pre-drawn arrival sequence actually submitted (empty when the
  /// arrivals were streamed rather than buffered).
  std::vector<workload::Arrival> arrivals;
  /// Steady-state metrics over [warmup, arrivals.duration).
  metrics::SteadyStateSummary steady;
};

/// Draw the arrival stream for `cfg` (without running anything). Exposed
/// so callers can inspect, persist (save_arrival_trace) or replay the
/// exact stream a run saw.
[[nodiscard]] std::vector<workload::Arrival> stream_arrivals(
    const StreamConfig& cfg);

/// Run one open-loop experiment synchronously. With cfg.stream_trace the
/// arrivals are pulled incrementally from the trace file; otherwise they
/// are pre-drawn and buffered.
[[nodiscard]] StreamResult run_stream_experiment(const StreamConfig& cfg);

/// Run several independent open-loop experiments concurrently (the
/// run_experiments fan-out). Results are in input order.
[[nodiscard]] std::vector<StreamResult> run_stream_experiments(
    std::span<const StreamConfig> configs);

/// Run one open-loop experiment over an arbitrary arrival source
/// (generator, trace reader, ...), streamed incrementally. The steady
/// window is [cfg.warmup, cfg.arrivals.duration) as usual; the source
/// must not yield arrivals at or after cfg.arrivals.duration.
[[nodiscard]] StreamResult run_stream_experiment(
    const StreamConfig& cfg, workload::ArrivalSource& source);

}  // namespace mrs::driver
