// Slot-based cluster resource model (Hadoop 1.x TaskTracker style).
//
// Each physical node exposes a fixed number of map slots and reduce slots
// (the paper: 4 map + 2 reduce per node). The scheduler is invoked on
// heartbeats with per-node free-slot counts; this module owns that
// accounting plus per-node execution parameters (CPU speed factor, local
// disk rate).
//
// The N_m / N_r free-slot sets of Algorithms 1 and 2 are maintained
// incrementally: membership only changes on a node's 0 <-> 1-free-slots
// transition (at most one node per assign/finish), so the sorted index
// vectors are patched in place and `nodes_with_free_*_slots()` returns a
// cached reference instead of scanning and allocating per heartbeat. The
// same toggles patch per-pod, per-rack and per-host counts of the N_m set,
// from which free_map_hops() sums hop counts over N_m in closed form
// (PNA's C_ave numerator, Eq. 4) without visiting its nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::cluster {

struct NodeConfig {
  std::size_t map_slots = 4;
  std::size_t reduce_slots = 2;
  BytesPerSec disk_rate = 150.0 * units::kMiB;  ///< local sequential read
  /// Relative CPU speed multiplier; per-node values are drawn from
  /// base_speed * [1 - speed_spread, 1 + speed_spread] on the labeled
  /// "node<i>-speed" sub-stream (invariant to unrelated config changes).
  double speed_spread = 0.0;
  /// Deterministic speed component (a heterogeneity class's cpu_speed);
  /// 1.0 for the homogeneous cluster.
  double base_speed = 1.0;
  /// Index into the cluster's class-name table (hetero::NodeClassProfile
  /// resolution); 0 for homogeneous clusters.
  std::size_t class_index = 0;
};

/// Per-node mutable state.
struct NodeState {
  std::size_t map_slots = 0;
  std::size_t reduce_slots = 0;
  std::size_t busy_map_slots = 0;
  std::size_t busy_reduce_slots = 0;
  double speed_factor = 1.0;
  BytesPerSec disk_rate = 0.0;
  std::size_t class_index = 0;  ///< heterogeneity class (0 = default)
  bool alive = true;  ///< a failed TaskTracker offers no slots
  /// An alive node can still be withheld from scheduling (blacklist
  /// probation): it keeps running already-assigned tasks but offers no
  /// free slots until reinstated.
  bool schedulable = true;

  [[nodiscard]] std::size_t free_map_slots() const {
    return alive && schedulable ? map_slots - busy_map_slots : 0;
  }
  [[nodiscard]] std::size_t free_reduce_slots() const {
    return alive && schedulable ? reduce_slots - busy_reduce_slots : 0;
  }
};

class Cluster {
 public:
  /// Builds one NodeState per topology host. `rng` drives the speed-factor
  /// draw only.
  Cluster(const net::Topology* topo, const NodeConfig& cfg, Rng rng);

  /// Heterogeneous construction: one NodeConfig per topology host
  /// (resolved by hetero::NodeClassProfile) plus the class-name table the
  /// per-class telemetry and summaries label with. Speed-spread jitter is
  /// drawn exactly as in the uniform constructor, around each node's
  /// base_speed.
  Cluster(const net::Topology* topo, std::span<const NodeConfig> per_node,
          std::vector<std::string> class_names, Rng rng);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const net::Topology& topology() const { return *topo_; }

  [[nodiscard]] const NodeState& node(NodeId id) const {
    MRS_REQUIRE(id.value() < nodes_.size());
    return nodes_[id.value()];
  }

  void occupy_map_slot(NodeId id);
  void release_map_slot(NodeId id);
  void occupy_reduce_slot(NodeId id);
  void release_reduce_slot(NodeId id);

  /// TaskTracker failure / recovery. Slot occupancy must already be zero
  /// when a node goes down (the engine kills and releases its tasks
  /// first).
  void set_node_alive(NodeId id, bool alive);
  [[nodiscard]] bool node_alive(NodeId id) const { return node(id).alive; }

  /// Blacklist probation: withhold/reinstate an alive node's free slots
  /// without touching its running tasks or occupancy.
  void set_node_schedulable(NodeId id, bool schedulable);

  /// Nodes that currently have at least one free map/reduce slot — the
  /// N_m / N_r sets of Algorithms 1 and 2, ascending by node id. The
  /// reference stays valid only until the next slot mutation (schedulers
  /// read it within one decision; none hold it across an assign).
  [[nodiscard]] const std::vector<NodeId>& nodes_with_free_map_slots() const;
  [[nodiscard]] const std::vector<NodeId>& nodes_with_free_reduce_slots()
      const;

  /// Nodes of N_m that have topology coordinate `coord`
  /// (Topology::coords_of, not kNoCoord): those in a pod or rack, or 0/1
  /// for a host.
  [[nodiscard]] std::size_t free_map_nodes_at(std::uint32_t coord) const {
    return free_map_by_coord_.at(coord);
  }

  /// Sum over N_m of Topology::nearest_hops to a host set with distinct
  /// coordinates `set` (Topology::append_set_coords), from the counts
  /// above: max_hops |N_m| - 2 * (sum over the set's pods of their N_m
  /// nodes + the same over its racks + |set & N_m|). An exact integer,
  /// equal to the pairwise sum of min hops.
  [[nodiscard]] std::size_t free_map_hops(
      std::span<const std::uint32_t> set) const {
    std::size_t shared = 0;
    for (const std::uint32_t c : set) shared += free_map_by_coord_[c];
    return topo_->max_hops() * free_map_index_.size() - 2 * shared;
  }

  /// Equivalence/debug mode: recompute the free lists by a full O(nodes)
  /// scan on every call (the pre-index behavior) instead of returning the
  /// incrementally maintained vectors. Contents are identical either way;
  /// the naive-path experiment runs use this to prove it.
  void set_naive_free_scan(bool naive) { naive_free_scan_ = naive; }

  /// Heterogeneity class labels. Homogeneous clusters have none
  /// (class_count() == 1, the implicit "default" class).
  [[nodiscard]] bool has_node_classes() const {
    return !class_names_.empty();
  }
  [[nodiscard]] std::size_t class_count() const {
    return class_names_.empty() ? 1 : class_names_.size();
  }
  [[nodiscard]] const std::string& class_name(std::size_t c) const;
  [[nodiscard]] std::size_t node_class(NodeId id) const {
    return node(id).class_index;
  }

  [[nodiscard]] std::size_t total_map_slots() const { return total_map_; }
  [[nodiscard]] std::size_t total_reduce_slots() const {
    return total_reduce_;
  }
  [[nodiscard]] std::size_t busy_map_slots() const { return busy_map_total_; }
  [[nodiscard]] std::size_t busy_reduce_slots() const {
    return busy_reduce_total_;
  }

 private:
  NodeState& mutable_node(NodeId id) {
    MRS_REQUIRE(id.value() < nodes_.size());
    return nodes_[id.value()];
  }

  /// Patch one sorted index after `id`'s free count crossed 0 <-> nonzero.
  void index_insert(std::vector<NodeId>& index, NodeId id);
  void index_erase(std::vector<NodeId>& index, NodeId id);
  void note_map_toggle(NodeId id, bool now_free);
  void note_reduce_toggle(NodeId id, bool now_free);

  /// Shared body of both constructors: one resolved NodeConfig per host.
  void init_nodes(std::span<const NodeConfig> per_node, Rng& rng);

  const net::Topology* topo_;
  std::vector<NodeState> nodes_;
  std::vector<std::string> class_names_;  ///< empty when homogeneous
  std::size_t total_map_ = 0;
  std::size_t total_reduce_ = 0;
  std::size_t busy_map_total_ = 0;
  std::size_t busy_reduce_total_ = 0;

  // Incremental free-slot index (sorted ascending, matching the scan
  // order of the naive implementation); the map side also counts its
  // members per pod, rack and host coordinate for free_map_hops().
  std::vector<NodeId> free_map_index_;
  std::vector<NodeId> free_reduce_index_;
  std::vector<std::size_t> free_map_by_coord_;

  bool naive_free_scan_ = false;
  mutable std::vector<NodeId> scan_cache_;  ///< naive-mode scratch
};

}  // namespace mrs::cluster
