// JSON string and number formatting shared by the JSONL, causal-trace and
// Chrome trace-event exporters.
#pragma once

#include <string>
#include <string_view>

namespace mrs {

/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_escape(std::string_view s);

/// %.17g keeps doubles round-trippable; JSON forbids NaN/Inf, so they are
/// emitted as null.
[[nodiscard]] std::string json_number(double v);

}  // namespace mrs
