// JSONL serialization of the causal trace: one object per line, typed
// by a "type" field ("job", "span", "decision", "blame"). This is the
// format `--trace-out` writes and tools/trace_analyze reads; the schema
// is documented in docs/tracing.md.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "mrs/trace/critical_path.hpp"
#include "mrs/trace/decision.hpp"
#include "mrs/trace/span.hpp"

namespace mrs::trace {

void to_jsonl(const std::vector<JobTrace>& jobs,
              const std::vector<PlacementDecisionRecord>& decisions,
              const std::vector<JobBlame>& blames, std::ostream& out);

/// Writes the trace to `path`; throws std::runtime_error if it cannot be
/// opened.
void write_jsonl(const std::string& path, const std::vector<JobTrace>& jobs,
                 const std::vector<PlacementDecisionRecord>& decisions,
                 const std::vector<JobBlame>& blames);

}  // namespace mrs::trace
