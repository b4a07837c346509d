// Node blacklisting: the graceful-degradation complement to the engine's
// hard fail/recover model.
//
// A node whose TaskTracker keeps failing is suspect even after it
// restarts (flaky disk, overheating, bad NIC): Hadoop excludes such nodes
// from scheduling for a probation period instead of trusting them
// immediately. This class tracks per-node failure history in a sliding
// window; when a node crosses the failure threshold it is marked listed,
// and on its next recovery the engine keeps it unschedulable (alive, but
// offering zero slots) until the probation timer expires.
//
// State machine per node:
//
//   normal --failure x threshold (in window)--> listed
//   listed --recovery--> probation (unschedulable; epoch bumped)
//   probation --timer (epoch matches)--> normal (schedulable again)
//   probation --failure--> listed (epoch bumped: pending timer is stale;
//                                  a fresh probation starts on recovery)
//
// The epoch guards the probation-end event: any failure or re-recovery
// bumps it, so a stale timer fires as a no-op instead of prematurely
// reinstating a node that failed again mid-probation.
#pragma once

#include <cstdint>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"

namespace mrs::control {

struct BlacklistConfig {
  bool enabled = false;
  /// Failures within `window` that move a node onto the blacklist.
  std::size_t failure_threshold = 2;
  /// Sliding failure-counting window; <= 0 counts over the whole run.
  Seconds window = 600.0;
  /// How long a recovered, listed node stays unschedulable.
  Seconds probation = 300.0;
};

class NodeBlacklist {
 public:
  NodeBlacklist(std::size_t node_count, BlacklistConfig cfg);

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// Record a failure of `node` at `now`. Marks the node listed when the
  /// windowed count reaches the threshold; always invalidates any pending
  /// probation timer (a failure during probation restarts the clock at
  /// the next recovery). No-op when disabled.
  void note_failure(NodeId node, Seconds now);

  /// The node just restarted: when listed, bump its epoch (stored into
  /// `epoch_out`) and return the probation length the caller must serve
  /// before making the node schedulable again; 0 when the node is clean.
  [[nodiscard]] Seconds start_probation_on_recovery(NodeId node,
                                                    std::uint64_t* epoch_out);

  /// Probation timer fired. Returns true when the node exits the
  /// blacklist now (epoch matches and it is still listed); a stale epoch
  /// makes this a no-op.
  [[nodiscard]] bool end_probation(NodeId node, std::uint64_t epoch);

  [[nodiscard]] bool listed(NodeId node) const {
    return info(node).listed;
  }
  /// Blacklist entries / probation completions over the run.
  [[nodiscard]] std::size_t entries() const { return entries_; }
  [[nodiscard]] std::size_t exits() const { return exits_; }

 private:
  struct NodeInfo {
    std::vector<Seconds> failure_times;  ///< pruned to the sliding window
    bool listed = false;
    std::uint64_t epoch = 0;  ///< invalidates scheduled probation ends
  };

  [[nodiscard]] const NodeInfo& info(NodeId node) const {
    MRS_REQUIRE(node.value() < nodes_.size());
    return nodes_[node.value()];
  }
  [[nodiscard]] NodeInfo& info(NodeId node) {
    MRS_REQUIRE(node.value() < nodes_.size());
    return nodes_[node.value()];
  }

  BlacklistConfig cfg_;
  std::vector<NodeInfo> nodes_;
  std::size_t entries_ = 0;
  std::size_t exits_ = 0;
};

}  // namespace mrs::control
