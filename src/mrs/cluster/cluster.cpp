#include "mrs/cluster/cluster.hpp"

#include <algorithm>

#include "mrs/common/strfmt.hpp"

namespace mrs::cluster {

Cluster::Cluster(const net::Topology* topo, const NodeConfig& cfg, Rng rng)
    : topo_(topo) {
  MRS_REQUIRE(topo_ != nullptr);
  const std::vector<NodeConfig> per_node(topo_->host_count(), cfg);
  init_nodes(per_node, rng);
}

Cluster::Cluster(const net::Topology* topo,
                 std::span<const NodeConfig> per_node,
                 std::vector<std::string> class_names, Rng rng)
    : topo_(topo), class_names_(std::move(class_names)) {
  MRS_REQUIRE(topo_ != nullptr);
  MRS_REQUIRE(per_node.size() == topo_->host_count());
  MRS_REQUIRE(!class_names_.empty());
  init_nodes(per_node, rng);
}

void Cluster::init_nodes(std::span<const NodeConfig> per_node, Rng& rng) {
  nodes_.reserve(per_node.size());
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const NodeConfig& cfg = per_node[i];
    MRS_REQUIRE(cfg.map_slots >= 1);
    MRS_REQUIRE(cfg.disk_rate > 0.0);
    MRS_REQUIRE(cfg.base_speed > 0.0);
    MRS_REQUIRE(cfg.speed_spread >= 0.0 && cfg.speed_spread < 1.0);
    MRS_REQUIRE(class_names_.empty() ||
                cfg.class_index < class_names_.size());
    NodeState s;
    s.map_slots = cfg.map_slots;
    s.reduce_slots = cfg.reduce_slots;
    s.disk_rate = cfg.disk_rate;
    s.class_index = cfg.class_index;
    // Per-node labeled sub-stream: node i's jitter draw is invariant to
    // unrelated config changes (and to the other nodes' draws), matching
    // the tenant-stream contract. The deterministic base_speed carries a
    // heterogeneity class's cpu_speed.
    double jitter = 1.0;
    if (cfg.speed_spread > 0.0) {
      Rng node_rng = rng.split(strf("node%zu-speed", i));
      jitter = node_rng.uniform(1.0 - cfg.speed_spread,
                                1.0 + cfg.speed_spread);
    }
    s.speed_factor = cfg.base_speed * jitter;
    nodes_.push_back(s);
    total_map_ += cfg.map_slots;
    total_reduce_ += cfg.reduce_slots;
  }
  // Every node starts alive with all slots free.
  free_map_index_.reserve(nodes_.size());
  free_reduce_index_.reserve(nodes_.size());
  free_map_by_coord_.assign(topo_->coord_count(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    free_map_index_.push_back(NodeId(i));
    for (const std::uint32_t c : topo_->coords_of(NodeId(i))) {
      if (c != net::kNoCoord) ++free_map_by_coord_[c];
    }
    if (nodes_[i].reduce_slots > 0) free_reduce_index_.push_back(NodeId(i));
  }
}

const std::string& Cluster::class_name(std::size_t c) const {
  static const std::string kDefault = "default";
  if (class_names_.empty()) {
    MRS_REQUIRE(c == 0);
    return kDefault;
  }
  MRS_REQUIRE(c < class_names_.size());
  return class_names_[c];
}

void Cluster::index_insert(std::vector<NodeId>& index, NodeId id) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [](NodeId a, NodeId b) { return a.value() < b.value(); });
  MRS_ASSERT(it == index.end() || *it != id);
  index.insert(it, id);
}

void Cluster::index_erase(std::vector<NodeId>& index, NodeId id) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [](NodeId a, NodeId b) { return a.value() < b.value(); });
  MRS_ASSERT(it != index.end() && *it == id);
  index.erase(it);
}

void Cluster::note_map_toggle(NodeId id, bool now_free) {
  if (now_free) {
    index_insert(free_map_index_, id);
  } else {
    index_erase(free_map_index_, id);
  }
  for (const std::uint32_t c : topo_->coords_of(id)) {
    if (c == net::kNoCoord) continue;
    now_free ? ++free_map_by_coord_[c] : --free_map_by_coord_[c];
  }
}

void Cluster::note_reduce_toggle(NodeId id, bool now_free) {
  if (now_free) {
    index_insert(free_reduce_index_, id);
  } else {
    index_erase(free_reduce_index_, id);
  }
}

void Cluster::occupy_map_slot(NodeId id) {
  NodeState& n = mutable_node(id);
  MRS_REQUIRE(n.alive && n.schedulable);
  MRS_REQUIRE(n.busy_map_slots < n.map_slots);
  ++n.busy_map_slots;
  ++busy_map_total_;
  if (n.free_map_slots() == 0) note_map_toggle(id, /*now_free=*/false);
}

void Cluster::release_map_slot(NodeId id) {
  NodeState& n = mutable_node(id);
  MRS_REQUIRE(n.busy_map_slots > 0);
  const bool was_empty = n.free_map_slots() == 0;
  --n.busy_map_slots;
  --busy_map_total_;
  if (was_empty && n.free_map_slots() > 0) {
    note_map_toggle(id, /*now_free=*/true);
  }
}

void Cluster::occupy_reduce_slot(NodeId id) {
  NodeState& n = mutable_node(id);
  MRS_REQUIRE(n.alive && n.schedulable);
  MRS_REQUIRE(n.busy_reduce_slots < n.reduce_slots);
  ++n.busy_reduce_slots;
  ++busy_reduce_total_;
  if (n.free_reduce_slots() == 0) note_reduce_toggle(id, /*now_free=*/false);
}

void Cluster::release_reduce_slot(NodeId id) {
  NodeState& n = mutable_node(id);
  MRS_REQUIRE(n.busy_reduce_slots > 0);
  const bool was_empty = n.free_reduce_slots() == 0;
  --n.busy_reduce_slots;
  --busy_reduce_total_;
  if (was_empty && n.free_reduce_slots() > 0) {
    note_reduce_toggle(id, /*now_free=*/true);
  }
}

void Cluster::set_node_alive(NodeId id, bool alive) {
  NodeState& n = mutable_node(id);
  if (!alive) {
    MRS_REQUIRE(n.busy_map_slots == 0 && n.busy_reduce_slots == 0);
  }
  if (n.alive == alive) return;
  // With zero occupancy, aliveness alone decides membership: a node drain
  // removes it from both free sets, a recovery re-inserts it.
  const bool map_member = n.free_map_slots() > 0;
  const bool reduce_member = n.free_reduce_slots() > 0;
  n.alive = alive;
  if ((n.free_map_slots() > 0) != map_member) {
    note_map_toggle(id, /*now_free=*/!map_member);
  }
  if ((n.free_reduce_slots() > 0) != reduce_member) {
    note_reduce_toggle(id, /*now_free=*/!reduce_member);
  }
}

void Cluster::set_node_schedulable(NodeId id, bool schedulable) {
  NodeState& n = mutable_node(id);
  if (n.schedulable == schedulable) return;
  // Same before/after membership patch as set_node_alive, but occupancy
  // may be nonzero: a probationed node keeps running its tasks.
  const bool map_member = n.free_map_slots() > 0;
  const bool reduce_member = n.free_reduce_slots() > 0;
  n.schedulable = schedulable;
  if ((n.free_map_slots() > 0) != map_member) {
    note_map_toggle(id, /*now_free=*/!map_member);
  }
  if ((n.free_reduce_slots() > 0) != reduce_member) {
    note_reduce_toggle(id, /*now_free=*/!reduce_member);
  }
}

const std::vector<NodeId>& Cluster::nodes_with_free_map_slots() const {
  if (naive_free_scan_) {
    scan_cache_.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].free_map_slots() > 0) scan_cache_.push_back(NodeId(i));
    }
    return scan_cache_;
  }
  return free_map_index_;
}

const std::vector<NodeId>& Cluster::nodes_with_free_reduce_slots() const {
  if (naive_free_scan_) {
    scan_cache_.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].free_reduce_slots() > 0) scan_cache_.push_back(NodeId(i));
    }
    return scan_cache_;
  }
  return free_reduce_index_;
}

}  // namespace mrs::cluster
