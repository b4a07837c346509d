// Cluster network topology: hosts (data nodes), switches, full-duplex links.
//
// The paper's cost model needs (a) hop distances between data nodes for the
// distance matrix H (Eq. 1-3) and (b) link capacities for the
// network-condition variant (Sec. II-B-3) and the flow-level shuffle
// simulation. Factories cover the shapes the evaluation describes: a single
// rack (the Palmetto allocation the authors got), a multi-rack tree with ToR
// and core switches, and a k-ary fat-tree for larger studies.
//
// Every shape places a host at a (pod, rack, access link) coordinate, and the
// factories create links in a fixed order. Routes and hop distances are
// arithmetic on those coordinates, computed on demand: the topology stores
// O(hosts + links) state and nothing per host pair.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"

namespace mrs::net {

/// A vertex in the topology graph is either a host (data node) or a switch.
enum class VertexKind { kHost, kSwitch };

struct Vertex {
  VertexKind kind = VertexKind::kHost;
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

/// A host-to-host route, held by value: at most six directed links (host,
/// edge, aggregation, core, aggregation, edge, host on a fat-tree).
class Route {
 public:
  static constexpr std::size_t kMaxLinks = 6;

  void push_back(DirectedLink dl) {
    MRS_ASSERT(size_ < kMaxLinks);
    links_[size_++] = dl;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const DirectedLink& operator[](std::size_t i) const {
    MRS_ASSERT(i < size_);
    return links_[i];
  }
  [[nodiscard]] const DirectedLink& front() const { return (*this)[0]; }
  [[nodiscard]] const DirectedLink& back() const {
    return (*this)[size_ - 1];
  }
  [[nodiscard]] const DirectedLink* begin() const { return links_.data(); }
  [[nodiscard]] const DirectedLink* end() const {
    return links_.data() + size_;
  }
  /// The links as a span; valid while this route lives.
  [[nodiscard]] std::span<const DirectedLink> links() const {
    return {links_.data(), size_};
  }

 private:
  std::array<DirectedLink, kMaxLinks> links_;
  std::size_t size_ = 0;
};

/// A host's pod, rack and host coordinates (Topology::coords_of);
/// kNoCoord stands for a level that does not split the hosts.
using Coords = std::array<std::uint32_t, 3>;
inline constexpr std::uint32_t kNoCoord = 0xffffffffu;

/// Immutable network graph, built by the factory functions below.
class Topology {
 public:
  [[nodiscard]] std::size_t host_count() const { return places_.size(); }
  [[nodiscard]] std::size_t switch_count() const {
    return vertices_.size() - places_.size();
  }
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

  /// Vertex index of host `n` (the near end of its access link).
  [[nodiscard]] std::size_t host_vertex(NodeId n) const {
    return links_[place(n).link].a;
  }
  [[nodiscard]] RackId rack_of(NodeId n) const {
    return RackId(place(n).rack);
  }
  [[nodiscard]] bool same_rack(NodeId a, NodeId b) const {
    return place(a).rack == place(b).rack;
  }
  /// Pod of host `n`: its fat-tree pod, or 0 on a tree (one pod).
  [[nodiscard]] std::size_t pod_of(NodeId n) const { return place(n).pod; }
  [[nodiscard]] std::size_t pod_count() const {
    return half_ == 0 ? 1 : 2 * half_;
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
  /// src == dst), computed from the hosts' coordinates. On a fat-tree a
  /// pair's aggregation switch and core are picked by an ECMP hash of the
  /// pair, so routing is stable across runs while pairs spread.
  [[nodiscard]] Route path(NodeId src, NodeId dst) const;

  /// Hop count (number of links) on the routing path between two hosts:
  /// 0 (same host), 2 (same rack), 4 (same pod; a tree is one pod) or 6.
  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const {
    const Place& a = place(src);
    const Place& b = place(dst);
    if (src == dst) return 0;
    if (a.rack == b.rack) return 2;
    return a.pod == b.pod ? 4 : 6;
  }

  /// Most hops between two hosts: 6 on a fat-tree, 4 on a multi-rack
  /// tree, 2 in a single rack.
  [[nodiscard]] std::size_t max_hops() const { return max_hops_; }
  /// Coordinates number every pod, rack and host once: pods first, then
  /// racks, then hosts (coord_count() in all). A host has one per level
  /// that splits the hosts: its pod's, its rack's and its own. The pod of
  /// a tree and the rack of a single rack, which every host shares, are
  /// kNoCoord. Then hops(a, b) = max_hops() - 2 * (number of coordinates
  /// a and b share), since the matches nest (same host => same rack =>
  /// same pod).
  [[nodiscard]] std::size_t coord_count() const {
    return pod_count() + rack_count_ + host_count();
  }
  [[nodiscard]] Coords coords_of(NodeId n) const {
    const Place& p = place(n);
    const auto racks_at = static_cast<std::uint32_t>(pod_count());
    const auto hosts_at = racks_at + static_cast<std::uint32_t>(rack_count_);
    return {pod_count() > 1 ? p.pod : kNoCoord,
            rack_count_ > 1 ? racks_at + p.rack : kNoCoord,
            hosts_at + static_cast<std::uint32_t>(n.value())};
  }
  /// Hops from a host with coordinates `v` to the nearest host of a set
  /// whose distinct coordinates are `set` (append_set_coords):
  /// max_hops() - 2([pod(v) in pods(set)] + [rack(v) in racks(set)] +
  /// [v in set]), the minimum of hops(v, s) over the set.
  [[nodiscard]] std::size_t nearest_hops(
      const Coords& v, std::span<const std::uint32_t> set) const {
    std::size_t shared = 0;
    for (const std::uint32_t c : set) {
      shared += static_cast<std::size_t>((c == v[0]) | (c == v[1]) |
                                         (c == v[2]));
    }
    return max_hops_ - 2 * shared;
  }
  /// Append the distinct coordinates of the hosts in `set` (a block's
  /// replicas) to `out`: one per pod, rack and host of the set, less
  /// kNoCoord.
  void append_set_coords(std::span<const NodeId> set,
                         std::vector<std::uint32_t>& out) const;

  /// Scale each host's access-link capacity by `per_host_scale[host]`
  /// (heterogeneous NIC generations; hetero::NodeClassProfile supplies
  /// the factors). Routing is hop-based and unaffected; call before any
  /// flow/link-condition model reads the capacities. Scales of exactly
  /// 1.0 leave the link bytes untouched, so an all-ones profile is a
  /// provable no-op.
  void scale_host_link_capacities(std::span<const double> per_host_scale);

 private:
  friend class TopologyBuilder;  // the factories' helper, in topology.cpp

  /// Where a host sits: its rack (ToR or edge switch), its pod and its
  /// access link.
  struct Place {
    std::uint32_t rack;
    std::uint32_t pod;
    std::uint32_t link;
  };
  [[nodiscard]] const Place& place(NodeId n) const {
    MRS_REQUIRE(n.value() < places_.size());
    return places_[n.value()];
  }

  std::vector<Vertex> vertices_;
  std::vector<Link> links_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<Place> places_;  ///< host index -> coordinates
  std::size_t rack_count_ = 0;
  // Routing parameters (see path()): k/2 on a fat-tree, 0 on a tree; and on
  // a tree, the links each rack owns (its uplink, then one per host).
  std::size_t half_ = 0;
  std::size_t rack_links_ = 0;
  std::size_t max_hops_ = 0;
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
