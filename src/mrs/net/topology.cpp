#include "mrs/net/topology.hpp"

#include "mrs/common/rng.hpp"
#include "mrs/common/strfmt.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace mrs::net {

std::span<const DirectedLink> Topology::path(NodeId src, NodeId dst) const {
  MRS_REQUIRE(src.value() < hosts_.size());
  MRS_REQUIRE(dst.value() < hosts_.size());
  const std::size_t slot = src.value() * host_count() + dst.value();
  return {route_pool_.data() + route_offsets_[slot],
          route_offsets_[slot + 1] - route_offsets_[slot]};
}

void Topology::build_routes() {
  const std::size_t h = host_count();
  const std::size_t v = vertex_count();
  route_offsets_.assign(h * h + 1, 0);
  route_pool_.clear();

  // BFS from every host over the vertex graph. All equal-cost parents are
  // kept; path reconstruction picks one per (src, dst) pair with a
  // deterministic hash — flow-level ECMP. Topologies with unique shortest
  // paths (trees) are unaffected.
  std::vector<std::size_t> dist(v);
  struct Parent {
    std::size_t vertex;
    LinkId link;
  };
  std::vector<std::vector<Parent>> parents(v);
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();

  for (std::size_t s = 0; s < h; ++s) {
    std::fill(dist.begin(), dist.end(), kInf);
    for (auto& p : parents) p.clear();
    const std::size_t start = hosts_[s];
    dist[start] = 0;
    std::deque<std::size_t> queue{start};
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const Adjacency& adj : adjacency_[u]) {
        if (dist[adj.neighbor] == kInf) {
          dist[adj.neighbor] = dist[u] + 1;
          parents[adj.neighbor].push_back({u, adj.link});
          queue.push_back(adj.neighbor);
        } else if (dist[adj.neighbor] == dist[u] + 1) {
          parents[adj.neighbor].push_back({u, adj.link});  // equal-cost
        }
      }
    }
    std::vector<DirectedLink> reversed;
    for (std::size_t t = 0; t < h; ++t) {
      if (t != s) {
        const std::size_t target = hosts_[t];
        MRS_REQUIRE(dist[target] != kInf);  // topology must be connected
        // Walk back target -> start, hashing the ECMP choice per hop so the
        // (s, t) pair's path is stable but different pairs spread.
        const std::uint64_t pair_hash =
            splitmix64((std::uint64_t(s) << 32) ^ std::uint64_t(t));
        reversed.clear();
        std::size_t cur = target;
        std::size_t hop = 0;
        while (cur != start) {
          const auto& options = parents[cur];
          MRS_ASSERT(!options.empty());
          const Parent& p =
              options[splitmix64(pair_hash + hop++) % options.size()];
          const Link& l = links_[p.link.value()];
          // Forward direction of travel is parent -> cur.
          const bool rev = (l.b == p.vertex && l.a == cur);
          MRS_ASSERT(rev || (l.a == p.vertex && l.b == cur));
          reversed.push_back(DirectedLink{p.link, rev});
          cur = p.vertex;
        }
        route_pool_.insert(route_pool_.end(), reversed.rbegin(),
                           reversed.rend());
      }
      // Slots are visited in ascending (s, t) order, so recording the pool
      // size after each one yields the CSR offsets (t == s stays empty).
      route_offsets_[s * h + t + 1] = route_pool_.size();
    }
  }
}

void Topology::scale_host_link_capacities(
    std::span<const double> per_host_scale) {
  MRS_REQUIRE(per_host_scale.size() == hosts_.size());
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    const double scale = per_host_scale[h];
    MRS_REQUIRE(scale > 0.0);
    if (scale == 1.0) continue;
    for (const Adjacency& adj : adjacency_[hosts_[h]]) {
      links_[adj.link.value()].capacity *= scale;
    }
  }
}

NodeId TopologyBuilder::add_host(std::string name, RackId rack) {
  const NodeId id(topo_.hosts_.size());
  topo_.hosts_.push_back(topo_.vertices_.size());
  topo_.vertices_.push_back({VertexKind::kHost, std::move(name), rack});
  topo_.adjacency_.emplace_back();
  return id;
}

SwitchId TopologyBuilder::add_switch(std::string name, RackId rack) {
  const SwitchId id(topo_.switches_.size());
  topo_.switches_.push_back(topo_.vertices_.size());
  topo_.vertices_.push_back({VertexKind::kSwitch, std::move(name), rack});
  topo_.adjacency_.emplace_back();
  return id;
}

LinkId TopologyBuilder::connect_host_switch(NodeId host, SwitchId sw,
                                            BytesPerSec capacity) {
  MRS_REQUIRE(capacity > 0.0);
  const std::size_t hv = topo_.hosts_.at(host.value());
  const std::size_t sv = topo_.switches_.at(sw.value());
  const LinkId id(topo_.links_.size());
  topo_.links_.push_back({hv, sv, capacity});
  topo_.adjacency_[hv].push_back({sv, id});
  topo_.adjacency_[sv].push_back({hv, id});
  return id;
}

LinkId TopologyBuilder::connect_switches(SwitchId a, SwitchId b,
                                         BytesPerSec capacity) {
  MRS_REQUIRE(capacity > 0.0);
  const std::size_t av = topo_.switches_.at(a.value());
  const std::size_t bv = topo_.switches_.at(b.value());
  const LinkId id(topo_.links_.size());
  topo_.links_.push_back({av, bv, capacity});
  topo_.adjacency_[av].push_back({bv, id});
  topo_.adjacency_[bv].push_back({av, id});
  return id;
}

Topology TopologyBuilder::build() {
  MRS_REQUIRE(!topo_.hosts_.empty());
  topo_.rack_count_ = rack_count_;
  topo_.build_routes();
  return std::move(topo_);
}

Topology make_single_rack(std::size_t hosts, BytesPerSec host_link) {
  MRS_REQUIRE(hosts >= 1);
  TopologyBuilder b;
  b.set_rack_count(1);
  const SwitchId tor = b.add_switch("tor0", RackId(0));
  for (std::size_t i = 0; i < hosts; ++i) {
    const NodeId n = b.add_host(strf("node%zu", i), RackId(0));
    b.connect_host_switch(n, tor, host_link);
  }
  return b.build();
}

Topology make_multi_rack_tree(const TreeTopologyConfig& cfg) {
  MRS_REQUIRE(cfg.racks >= 1 && cfg.hosts_per_rack >= 1);
  TopologyBuilder b;
  b.set_rack_count(cfg.racks);
  const SwitchId core = b.add_switch("core0");
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    const SwitchId tor = b.add_switch(strf("tor%zu", r), RackId(r));
    b.connect_switches(tor, core, cfg.uplink);
    for (std::size_t i = 0; i < cfg.hosts_per_rack; ++i) {
      const NodeId n =
          b.add_host(strf("node%zu-%zu", r, i), RackId(r));
      b.connect_host_switch(n, tor, cfg.host_link);
    }
  }
  return b.build();
}

Topology make_fat_tree(const FatTreeConfig& cfg) {
  const std::size_t k = cfg.k;
  MRS_REQUIRE(k >= 2 && k % 2 == 0);
  const std::size_t half = k / 2;
  TopologyBuilder b;
  b.set_rack_count(k * half);  // one rack per edge switch

  // (k/2)^2 core switches, indexed (i, j) with i, j in [0, k/2).
  std::vector<SwitchId> core(half * half);
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = 0; j < half; ++j) {
      core[i * half + j] = b.add_switch(strf("core%zu-%zu", i, j));
    }
  }

  std::size_t rack = 0;
  for (std::size_t pod = 0; pod < k; ++pod) {
    // k/2 aggregation switches; agg a connects to cores (a, *).
    std::vector<SwitchId> agg(half);
    for (std::size_t a = 0; a < half; ++a) {
      agg[a] = b.add_switch(strf("agg%zu-%zu", pod, a));
      for (std::size_t j = 0; j < half; ++j) {
        b.connect_switches(agg[a], core[a * half + j], cfg.link);
      }
    }
    // k/2 edge switches, each to every aggregation switch in the pod and
    // to k/2 hosts.
    for (std::size_t e = 0; e < half; ++e, ++rack) {
      const SwitchId edge =
          b.add_switch(strf("edge%zu-%zu", pod, e), RackId(rack));
      for (std::size_t a = 0; a < half; ++a) {
        b.connect_switches(edge, agg[a], cfg.link);
      }
      for (std::size_t hst = 0; hst < half; ++hst) {
        const NodeId n =
            b.add_host(strf("node%zu-%zu-%zu", pod, e, hst), RackId(rack));
        b.connect_host_switch(n, edge, cfg.link);
      }
    }
  }
  return b.build();
}

}  // namespace mrs::net
