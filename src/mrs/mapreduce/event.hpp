// One typed event per lifecycle point of the JobTracker model, emitted
// once to every Engine observer (trace sinks and counters in
// observers.hpp, the span recorder in mrs/trace/recorder.hpp). Observers
// never feed back into scheduling or RNG. An event is plain data; its one
// reference, `job_name`, is valid only during the callback. Header-only on
// mrs_common, so mrs_trace subscribes without linking the engine.
// docs/tracing.md tabulates every kind and what each observer makes of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"
#include "mrs/mapreduce/job.hpp"

namespace mrs::mapreduce {

enum class EventKind : std::uint8_t {
  // --- job lifecycle ---
  kJobActivated,  ///< admitted: the job enters the active set
  kJobDeferred,   ///< admission asked the arrival to retry later
  kJobRejected,   ///< admission turned the arrival away for good
  kJobAborted,    ///< a task exhausted its attempt cap
  kJobFinished,   ///< every task finished
  // --- task attempt lifecycle (`is_map` picks the task kind) ---
  kTaskAssigned,  ///< placed on `node`; `backup` = speculative map copy
  kTaskReady,     ///< startup done: map fetch/compute or reduce shuffle
  kShuffleDone,   ///< reduce: every partition copied, compute begins
  kTaskKilled,    ///< failure, stall, abort or a lost speculation race
  kTaskFinished,  ///< output produced
  kStallTimeout,  ///< the watchdog killed a transfer stalled too long
  kStallRetry,    ///< the stall backoff ended: the task is back in the pool
  // --- node lifecycle ---
  kNodeFailed,
  kNodeRecovered,
  kNodeBlacklisted,
  kNodeUnblacklisted,
};

struct EngineEvent {
  EventKind kind = EventKind::kJobActivated;
  Seconds time = 0.0;

  // --- job and task events: the job and its spec ---
  JobId job{};
  std::string_view job_name{};  ///< engine-owned: valid during the callback
  Seconds submit = 0.0;
  TenantId tenant{};
  std::size_t maps = 0;     ///< map task count
  std::size_t reduces = 0;  ///< reduce task count

  // --- task events ---
  bool is_map = true;
  bool backup = false;   ///< the speculative copy of a map attempt
  std::size_t task = 0;  ///< task index within the job

  /// Task events: the attempt's node. Node events: the node.
  NodeId node{};
  Locality locality = Locality::kRemote;  ///< task events: the attempt's
  /// Task events: attempts launched for the task so far. kJobDeferred: the
  /// arrival's earlier deferrals.
  std::size_t attempts = 0;
  std::size_t stall_retries = 0;  ///< task events: stall kills so far
  /// kJobDeferred: the retry delay. kTaskReady (map) and kShuffleDone: the
  /// drawn compute time (0 for a reduce's kTaskReady).
  Seconds duration = 0.0;
  bool remote = false;     ///< kTaskReady: map input streamed over the net
  bool straggler = false;  ///< kTaskReady: straggler-inflated compute draw

  friend bool operator==(const EngineEvent&, const EngineEvent&) = default;
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_event(const EngineEvent& event) = 0;
};

}  // namespace mrs::mapreduce
