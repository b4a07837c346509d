// Minimal leveled logger for the simulator.
//
// The simulator itself is silent at default level; drivers and examples can
// raise verbosity to trace scheduling decisions. No global mutable state
// beyond the process-wide level (set once at startup by drivers).
#pragma once

#include <string_view>

#include "mrs/common/strfmt.hpp"

namespace mrs {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

namespace log_detail {
LogLevel& level_ref();
void emit(LogLevel level, std::string_view msg);
}  // namespace log_detail

/// Process-wide log threshold. Messages below it are dropped.
inline void set_log_level(LogLevel level) { log_detail::level_ref() = level; }
inline LogLevel log_level() { return log_detail::level_ref(); }

#define MRS_LOG_FWD(name, level)                        \
  MRS_PRINTF_LIKE(1, 2)                                 \
  inline void name(const char* fmt, ...) {              \
    if (level < log_detail::level_ref()) return;        \
    std::va_list args;                                  \
    va_start(args, fmt);                                \
    log_detail::emit(level, vstrf(fmt, args));          \
    va_end(args);                                       \
  }

MRS_LOG_FWD(log_trace, LogLevel::kTrace)
MRS_LOG_FWD(log_debug, LogLevel::kDebug)
MRS_LOG_FWD(log_info, LogLevel::kInfo)
MRS_LOG_FWD(log_warn, LogLevel::kWarn)

#undef MRS_LOG_FWD

}  // namespace mrs
