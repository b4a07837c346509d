// JSONL (one JSON object per line) export of telemetry: time-series
// sample rows followed by the final snapshot of every registered metric.
// The schema is documented in docs/telemetry.md; each line carries a
// "type" discriminator so consumers can stream-filter with grep/jq.
#pragma once

#include <string>

#include "mrs/telemetry/registry.hpp"
#include "mrs/telemetry/sampler.hpp"

namespace mrs::telemetry {

/// One {"type":"sample",...} line per row, then one line per counter,
/// gauge, histogram and timer. Returns the full JSONL document.
[[nodiscard]] std::string to_jsonl(const Snapshot& snapshot,
                                   const TimeSeries& series);

/// Write to_jsonl(...) to `path`; throws std::runtime_error on I/O error.
void write_jsonl(const std::string& path, const Snapshot& snapshot,
                 const TimeSeries& series);

}  // namespace mrs::telemetry
