// Causal span model for per-job tracing.
//
// A JobTrace is the span tree for one job: job -> per-task TaskSpans ->
// per-attempt AttemptSpan. Each attempt carries the sim-time boundaries
// of its lifecycle segments (queue wait is implicit between submit /
// kill and the next assignment; startup, transfer, and compute are
// delimited by assigned / ready / shuffle_done / end), so the
// critical-path extractor can partition a job's response time exactly.
//
// The model is plain data on purpose: the recorder (recorder.hpp) fills
// it from engine lifecycle events that carry ids, indices, and times —
// never engine object references — so mrs_trace links only mrs_common.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"

namespace mrs::trace {

/// One placement attempt of one task. Times are sim seconds; a negative
/// time means the boundary was never reached (attempt killed early, or
/// the run was truncated while the attempt was in flight).
struct AttemptSpan {
  std::size_t attempt = 0;  ///< 1-based attempt ordinal within the task
  NodeId node;              ///< node the attempt was placed on
  int locality = -1;        ///< distance class (0 node, 1 rack, 2 remote)
  bool backup = false;      ///< speculative (backup) attempt
  bool remote_fetch = false;  ///< map read its split over the network
  bool straggler = false;     ///< compute draw was straggler-inflated
  bool finished = false;      ///< closed successfully (else killed/open)
  bool closed = false;        ///< end boundary recorded

  Seconds assigned = -1.0;      ///< placement time (startup begins)
  Seconds ready = -1.0;         ///< startup done: fetch/compute (map) or
                                ///< shuffle start (reduce)
  Seconds shuffle_done = -1.0;  ///< reduce only: all partitions copied
  Seconds end = -1.0;           ///< finish or kill time

  /// Drawn service time in seconds: map compute duration, or reduce
  /// sort+reduce duration. For a remote map this is the compute floor
  /// under the app-limited fetch; (end - ready) - nominal_compute is
  /// the transfer stall.
  Seconds nominal_compute = 0.0;
};

/// All attempts of one task, in the order they were placed. A healthy
/// finished task has exactly one finished attempt (the last to close).
struct TaskSpans {
  std::vector<AttemptSpan> attempts;

  /// The attempt that produced the task's output, or nullptr.
  [[nodiscard]] const AttemptSpan* final_attempt() const {
    for (auto it = attempts.rbegin(); it != attempts.rend(); ++it) {
      if (it->finished) return &*it;
    }
    return nullptr;
  }
};

/// Span tree for one activated job. Jobs rejected by admission never
/// activate and have no trace.
struct JobTrace {
  JobId job;
  std::string name;
  TenantId tenant;
  Seconds submit = 0.0;
  Seconds admitted = -1.0;  ///< activation time (>= submit under deferral)
  Seconds finish = -1.0;    ///< completion/abort time; -1 if truncated
  bool aborted = false;
  bool activated = false;
  std::vector<TaskSpans> maps;
  std::vector<TaskSpans> reduces;
};

}  // namespace mrs::trace
