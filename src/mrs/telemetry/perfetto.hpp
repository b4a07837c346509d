// Chrome trace-event ("Trace Event Format") exporter, loadable in
// ui.perfetto.dev and chrome://tracing.
//
// The timeline is reconstructed from the engine events the execution trace
// keeps (mrs/mapreduce/observers.hpp): assigned->finished/killed pairs
// become complete ("X") slices on a track per cluster node, job
// activation->finish/abort pairs slices on a job track, and the rest
// instant events. Killed attempts are tied to their re-executions (and
// primaries to their speculative backups) with flow events, so retry
// chains render as arrows across node tracks. Placement decision records,
// when provided, become instant events on the offering node's track.
// Sampled time-series columns are emitted as counter ("C") events, and the
// host wall-clock timer aggregates as one summary slice each on a
// dedicated process. Sim seconds map to trace microseconds.
#pragma once

#include <span>
#include <string>

#include "mrs/mapreduce/event.hpp"
#include "mrs/telemetry/registry.hpp"
#include "mrs/telemetry/sampler.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::telemetry {

/// Build the complete {"traceEvents":[...]} JSON document.
[[nodiscard]] std::string to_chrome_trace(
    std::span<const mapreduce::EngineEvent> events, const Snapshot& snapshot,
    const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions = {});

/// Write to_chrome_trace(...) to `path`; throws std::runtime_error on I/O
/// error.
void write_chrome_trace(
    const std::string& path, std::span<const mapreduce::EngineEvent> events,
    const Snapshot& snapshot, const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions = {});

}  // namespace mrs::telemetry
