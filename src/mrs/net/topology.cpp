#include "mrs/net/topology.hpp"

#include <algorithm>

#include "mrs/common/rng.hpp"

namespace mrs::net {

Route Topology::path(NodeId src, NodeId dst) const {
  const Place& s = place(src);
  const Place& t = place(dst);
  Route route;
  if (src == dst) return route;
  route.push_back({LinkId(s.link), false});  // host up to its switch
  if (s.rack != t.rack && half_ == 0) {
    // Tree: ToR up to the core and down to the other ToR.
    route.push_back({LinkId(s.rack * rack_links_), false});
    route.push_back({LinkId(t.rack * rack_links_), true});
  } else if (s.rack != t.rack) {
    // Fat-tree: each pod owns 3h^2 consecutive links, the agg-core block
    // (agg a's link to core column j at a*h + j) and then, per edge switch,
    // its h edge-agg links and its h host links. All equal-cost choices are
    // made by one hash of the (src, dst) pair (flow-level ECMP).
    const std::size_t h = half_;
    const std::uint64_t pair = splitmix64(
        (std::uint64_t(src.value()) << 32) ^ std::uint64_t(dst.value()));
    const std::size_t agg = splitmix64(pair + 1) % h;
    const auto pod_base = [h](std::size_t pod) { return pod * 3 * h * h; };
    const auto edge_agg = [&](const Place& p) {
      const std::size_t edge = p.rack - p.pod * h;
      return LinkId(pod_base(p.pod) + h * h + edge * 2 * h + agg);
    };
    route.push_back({edge_agg(s), false});
    if (s.pod != t.pod) {
      const std::size_t core = splitmix64(pair + 2) % h;
      route.push_back({LinkId(pod_base(s.pod) + agg * h + core), false});
      route.push_back({LinkId(pod_base(t.pod) + agg * h + core), true});
    }
    route.push_back({edge_agg(t), true});
  }
  route.push_back({LinkId(t.link), true});  // down to the destination host
  return route;
}

void Topology::append_set_coords(std::span<const NodeId> set,
                                 std::vector<std::uint32_t>& out) const {
  MRS_REQUIRE(!set.empty());
  const std::size_t first = out.size();
  for (const NodeId n : set) {
    for (const std::uint32_t c : coords_of(n)) {
      if (c != kNoCoord &&
          std::find(out.begin() + static_cast<std::ptrdiff_t>(first),
                    out.end(), c) == out.end()) {
        out.push_back(c);
      }
    }
  }
}

void Topology::scale_host_link_capacities(
    std::span<const double> per_host_scale) {
  MRS_REQUIRE(per_host_scale.size() == places_.size());
  for (std::size_t h = 0; h < places_.size(); ++h) {
    const double scale = per_host_scale[h];
    MRS_REQUIRE(scale > 0.0);
    if (scale == 1.0) continue;
    links_[places_[h].link].capacity *= scale;
  }
}

/// The factories' graph construction. Links get ids in creation order,
/// which path() relies on.
class TopologyBuilder {
 public:
  TopologyBuilder(std::size_t racks, std::size_t half,
                  std::size_t rack_links) {
    topo_.rack_count_ = racks;
    topo_.half_ = half;
    topo_.rack_links_ = rack_links;
    topo_.max_hops_ = 2 + (racks > 1 ? 2 : 0) + (half > 0 ? 2 : 0);
  }

  /// Adds a switch and returns its vertex index.
  std::size_t add_switch(RackId rack = RackId::invalid()) {
    return add_vertex({VertexKind::kSwitch, rack});
  }

  /// Adds the next host, in `rack` of `pod`, linked to switch vertex `sw`.
  void add_host(std::size_t sw, std::size_t rack, std::size_t pod,
                BytesPerSec capacity) {
    const std::size_t v = add_vertex({VertexKind::kHost, RackId(rack)});
    const LinkId link = connect(v, sw, capacity);
    topo_.places_.push_back({static_cast<std::uint32_t>(rack),
                             static_cast<std::uint32_t>(pod),
                             static_cast<std::uint32_t>(link.value())});
  }

  /// Links vertices `a` and `b`; the forward direction is a -> b.
  LinkId connect(std::size_t a, std::size_t b, BytesPerSec capacity) {
    MRS_REQUIRE(capacity > 0.0);
    const LinkId id(topo_.links_.size());
    topo_.links_.push_back({a, b, capacity});
    topo_.adjacency_[a].push_back({b, id});
    topo_.adjacency_[b].push_back({a, id});
    return id;
  }

  [[nodiscard]] Topology build() {
    MRS_REQUIRE(!topo_.places_.empty());
    return std::move(topo_);
  }

 private:
  std::size_t add_vertex(Vertex vertex) {
    topo_.vertices_.push_back(vertex);
    topo_.adjacency_.emplace_back();
    return topo_.vertices_.size() - 1;
  }

  Topology topo_;
};

Topology make_single_rack(std::size_t hosts, BytesPerSec host_link) {
  MRS_REQUIRE(hosts >= 1);
  TopologyBuilder b(1, 0, 0);
  const std::size_t tor = b.add_switch(RackId(0));
  for (std::size_t i = 0; i < hosts; ++i) b.add_host(tor, 0, 0, host_link);
  return b.build();
}

Topology make_multi_rack_tree(const TreeTopologyConfig& cfg) {
  MRS_REQUIRE(cfg.racks >= 1 && cfg.hosts_per_rack >= 1);
  TopologyBuilder b(cfg.racks, 0, 1 + cfg.hosts_per_rack);
  const std::size_t core = b.add_switch();
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    const std::size_t tor = b.add_switch(RackId(r));
    b.connect(tor, core, cfg.uplink);
    for (std::size_t i = 0; i < cfg.hosts_per_rack; ++i) {
      b.add_host(tor, r, 0, cfg.host_link);
    }
  }
  return b.build();
}

Topology make_fat_tree(const FatTreeConfig& cfg) {
  const std::size_t k = cfg.k;
  MRS_REQUIRE(k >= 2 && k % 2 == 0);
  const std::size_t half = k / 2;
  TopologyBuilder b(k * half, half, 0);  // one rack per edge switch

  // (k/2)^2 core switches, indexed (i, j) with i, j in [0, k/2).
  std::vector<std::size_t> core(half * half);
  for (std::size_t& c : core) c = b.add_switch();

  std::size_t rack = 0;
  for (std::size_t pod = 0; pod < k; ++pod) {
    // k/2 aggregation switches; agg a connects to cores (a, *).
    std::vector<std::size_t> agg(half);
    for (std::size_t a = 0; a < half; ++a) {
      agg[a] = b.add_switch();
      for (std::size_t j = 0; j < half; ++j) {
        b.connect(agg[a], core[a * half + j], cfg.link);
      }
    }
    // k/2 edge switches, each to every aggregation switch in the pod and
    // to k/2 hosts.
    for (std::size_t e = 0; e < half; ++e, ++rack) {
      const std::size_t edge = b.add_switch(RackId(rack));
      for (std::size_t a = 0; a < half; ++a) {
        b.connect(edge, agg[a], cfg.link);
      }
      for (std::size_t hst = 0; hst < half; ++hst) {
        b.add_host(edge, rack, pod, cfg.link);
      }
    }
  }
  return b.build();
}

}  // namespace mrs::net
