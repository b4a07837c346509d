// Task-level scheduler interface (Sec. II-A).
//
// The engine invokes the scheduler once per heartbeat from a node. The
// paper's Algorithms 1 and 2 act on one heartbeat from one node: at most
// one map and one reduce are offered to its free slots, which is also the
// engine's per-heartbeat budget. TaskScheduler::on_heartbeat makes those
// two offers for every scheduler: offer_map when the map budget is left
// and the node has a free map slot, then offer_reduce under the same two
// conditions for reduces. A scheduler overrides the two hooks; inside
// them it inspects cluster/job state through the Engine facade and
// commits at most one placement with Engine::assign_map / assign_reduce.
// Leaving a slot unassigned is a valid decision (delay scheduling,
// probability skips) — the node simply heartbeats again one interval
// later.
#pragma once

#include "mrs/common/ids.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::telemetry {
class Registry;
}  // namespace mrs::telemetry

namespace mrs::mapreduce {

class Engine;

class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// A heartbeat from `node` arrived; `node` may have free map and/or
  /// reduce slots. Called only while at least one job is active. Makes
  /// the map offer, then the reduce offer (see the file comment).
  /// Virtual only so decorators (timing, test watchers) can wrap it.
  virtual void on_heartbeat(Engine& engine, NodeId node);

  /// `job` left the active set (completed or aborted). Schedulers that
  /// keep per-job state (delay-scheduling levels, caches) evict it here so
  /// open-loop streams don't accumulate one entry per job forever. The
  /// default is a no-op, so stateless schedulers need no changes.
  virtual void on_job_finished(Engine& engine, JobId job) {
    (void)engine;
    (void)job;
  }

  /// Optional: register scheduler metrics with `registry` (must outlive
  /// the run). Instrumented schedulers cache metric pointers here; the
  /// default is a no-op, so plain schedulers need no changes.
  virtual void set_telemetry(telemetry::Registry* registry) {
    (void)registry;
  }

  /// Optional: record every terminal per-offer placement decision —
  /// accepts and rejects — into `log` (must outlive the run). Recording
  /// is pure observation: instrumented schedulers must not let it change
  /// placements or RNG draws. The default is a no-op.
  virtual void set_decision_log(trace::DecisionLog* log) { (void)log; }

 protected:
  /// `node` has a free map slot and the heartbeat's map budget is left:
  /// assign at most one map task to it. The default declines.
  virtual void offer_map(Engine& engine, NodeId node) {
    (void)engine;
    (void)node;
  }
  /// `node` has a free reduce slot and the heartbeat's reduce budget is
  /// left: assign at most one reduce task to it. The default declines.
  virtual void offer_reduce(Engine& engine, NodeId node) {
    (void)engine;
    (void)node;
  }

  /// A decision record for an offer of `node`'s map (or reduce) slot with
  /// the fields every record takes from the engine filled in: time, task
  /// kind, offering node and the size of the free map (reduce) node set.
  /// The scheduler fills in the rest; the outcome defaults to
  /// kNoCandidate. Build it before the assignment, which may take the
  /// node's last free slot.
  [[nodiscard]] static trace::PlacementDecisionRecord offer_record(
      const Engine& engine, bool is_map, NodeId node);
};

}  // namespace mrs::mapreduce
