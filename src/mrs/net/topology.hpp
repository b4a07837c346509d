// Cluster network topology: hosts (data nodes), switches, full-duplex links.
//
// The paper's cost model needs (a) hop distances between data nodes for the
// distance matrix H (Eq. 1-3) and (b) link capacities for the
// network-condition variant (Sec. II-B-3) and the flow-level shuffle
// simulation. Builders cover the shapes the evaluation describes: a single
// rack (the Palmetto allocation the authors got), a multi-rack tree with ToR
// and core switches, and a k-ary fat-tree for larger studies.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"

namespace mrs::net {

/// A vertex in the topology graph is either a host (data node) or a switch.
enum class VertexKind { kHost, kSwitch };

struct Vertex {
  VertexKind kind = VertexKind::kHost;
  std::string name;
  RackId rack = RackId::invalid();  ///< rack for hosts and ToR switches
};

/// Full-duplex link between two vertices. Each direction has `capacity`.
struct Link {
  std::size_t a = 0;  ///< vertex index
  std::size_t b = 0;  ///< vertex index
  BytesPerSec capacity = 0.0;
};

/// Directed view of a link, used by the flow model. Index convention:
/// directed index = 2 * link + (0 for a->b, 1 for b->a).
struct DirectedLink {
  LinkId link;
  bool reverse = false;

  [[nodiscard]] std::size_t directed_index() const {
    return 2 * link.value() + (reverse ? 1u : 0u);
  }
};

/// Immutable network graph. Construct via TopologyBuilder or the named
/// factory functions below.
class Topology {
 public:
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t vertex_count() const { return vertices_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t rack_count() const { return rack_count_; }

  [[nodiscard]] const Vertex& vertex(std::size_t v) const {
    MRS_REQUIRE(v < vertices_.size());
    return vertices_[v];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    MRS_REQUIRE(id.value() < links_.size());
    return links_[id.value()];
  }

  /// Vertex index of host `n`.
  [[nodiscard]] std::size_t host_vertex(NodeId n) const {
    MRS_REQUIRE(n.value() < hosts_.size());
    return hosts_[n.value()];
  }
  [[nodiscard]] RackId rack_of(NodeId n) const {
    return vertex(host_vertex(n)).rack;
  }
  [[nodiscard]] bool same_rack(NodeId a, NodeId b) const {
    return rack_of(a) == rack_of(b);
  }

  /// Adjacent (neighbor vertex, link) pairs of vertex `v`.
  struct Adjacency {
    std::size_t neighbor;
    LinkId link;
  };
  [[nodiscard]] const std::vector<Adjacency>& neighbors(std::size_t v) const {
    MRS_REQUIRE(v < adjacency_.size());
    return adjacency_[v];
  }

  /// Shortest routing path between two hosts as directed links (empty when
  /// src == dst). Ties are broken deterministically by an ECMP hash, so
  /// routing is stable across runs. The returned span views the topology's
  /// route pool and stays valid for the topology's lifetime (routes are
  /// stored CSR-style — one flat pool plus offsets — so a 1k-host fat-tree's
  /// ~1M routes don't pay a million small allocations).
  [[nodiscard]] std::span<const DirectedLink> path(NodeId src,
                                                   NodeId dst) const;

  /// Hop count (number of links) on the routing path between two hosts.
  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const {
    return path(src, dst).size();
  }

  /// Scale each host's access-link capacity by `per_host_scale[host]`
  /// (heterogeneous NIC generations; hetero::NodeClassProfile supplies
  /// the factors). Routing is hop-based and unaffected; call before any
  /// flow/link-condition model reads the capacities. Scales of exactly
  /// 1.0 leave the link bytes untouched, so an all-ones profile is a
  /// provable no-op.
  void scale_host_link_capacities(std::span<const double> per_host_scale);

 private:
  friend class TopologyBuilder;

  void build_routes();

  std::vector<Vertex> vertices_;
  std::vector<Link> links_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<std::size_t> hosts_;     ///< host index -> vertex index
  std::vector<std::size_t> switches_;  ///< switch index -> vertex index
  std::size_t rack_count_ = 0;
  // Precomputed host-to-host routes in CSR layout: route (src, dst) is
  // route_pool_[route_offsets_[src * H + dst] .. route_offsets_[src * H +
  // dst + 1]).
  std::vector<std::size_t> route_offsets_;
  std::vector<DirectedLink> route_pool_;
};

/// Incremental topology construction.
class TopologyBuilder {
 public:
  NodeId add_host(std::string name, RackId rack);
  SwitchId add_switch(std::string name,
                      RackId rack = RackId::invalid());
  LinkId connect_host_switch(NodeId host, SwitchId sw, BytesPerSec capacity);
  LinkId connect_switches(SwitchId a, SwitchId b, BytesPerSec capacity);

  void set_rack_count(std::size_t n) { rack_count_ = n; }

  /// Finalizes the graph and computes all host-to-host routes.
  /// The builder must not be reused afterwards.
  [[nodiscard]] Topology build();

 private:
  Topology topo_;
  std::size_t rack_count_ = 0;
};

/// Parameters for the standard data-center tree shapes.
struct TreeTopologyConfig {
  std::size_t racks = 4;
  std::size_t hosts_per_rack = 15;
  BytesPerSec host_link = units::Gbps(1);    ///< host <-> ToR
  BytesPerSec uplink = units::Gbps(10);      ///< ToR <-> core (paper: 10 Gbps)
};

/// All hosts under one top-of-rack switch (hop distances: 0 or 2).
/// Matches the paper's actual experiment allocation ("the slave nodes we
/// requested were all assigned to the same rack").
[[nodiscard]] Topology make_single_rack(std::size_t hosts,
                                        BytesPerSec host_link =
                                            units::Gbps(1));

/// racks x hosts_per_rack two-level tree: hosts - ToR - one core switch.
/// Hop distances: 0 (same host), 2 (same rack), 4 (cross rack).
[[nodiscard]] Topology make_multi_rack_tree(const TreeTopologyConfig& cfg);

/// k-ary fat-tree (Al-Fares et al.): k pods, each with k/2 edge and k/2
/// aggregation switches; (k/2)^2 core switches; (k/2)^2 hosts per pod.
/// `k` must be even and >= 2. Every inter-pod host pair has (k/2)^2
/// equal-cost 6-hop paths; routing picks one per (src, dst) pair by a
/// deterministic ECMP hash, so load spreads across cores while each pair's
/// route stays stable (flow-level ECMP).
struct FatTreeConfig {
  std::size_t k = 4;
  BytesPerSec link = units::Gbps(1);  ///< uniform capacity (rearrangeably
                                      ///< non-blocking by construction)
};
[[nodiscard]] Topology make_fat_tree(const FatTreeConfig& cfg);

}  // namespace mrs::net
