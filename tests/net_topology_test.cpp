// Tests for topology construction, routing and hop distances.
#include <gtest/gtest.h>

#include <cstdint>

#include "mrs/net/distance.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {
namespace {

TEST(SingleRack, Shape) {
  const Topology t = make_single_rack(8);
  EXPECT_EQ(t.host_count(), 8u);
  EXPECT_EQ(t.switch_count(), 1u);
  EXPECT_EQ(t.link_count(), 8u);
  EXPECT_EQ(t.rack_count(), 1u);
}

TEST(SingleRack, HopDistances) {
  const Topology t = make_single_rack(5);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = 0; b < 5; ++b) {
      const std::size_t expected = a == b ? 0u : 2u;
      EXPECT_EQ(t.hops(NodeId(a), NodeId(b)), expected);
    }
  }
}

TEST(SingleRack, AllSameRack) {
  const Topology t = make_single_rack(4);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_TRUE(t.same_rack(NodeId(a), NodeId(b)));
    }
  }
}

TEST(MultiRack, Shape) {
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  const Topology t = make_multi_rack_tree(cfg);
  EXPECT_EQ(t.host_count(), 12u);
  EXPECT_EQ(t.switch_count(), 4u);  // 3 ToR + 1 core
  EXPECT_EQ(t.rack_count(), 3u);
}

TEST(MultiRack, HopDistances) {
  TreeTopologyConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 3;
  const Topology t = make_multi_rack_tree(cfg);
  // Same node: 0; same rack: 2 (host-tor-host); cross rack: 4.
  EXPECT_EQ(t.hops(NodeId(0), NodeId(0)), 0u);
  EXPECT_EQ(t.hops(NodeId(0), NodeId(1)), 2u);
  EXPECT_EQ(t.hops(NodeId(0), NodeId(3)), 4u);
  EXPECT_FALSE(t.same_rack(NodeId(0), NodeId(3)));
  EXPECT_TRUE(t.same_rack(NodeId(3), NodeId(4)));
}

TEST(Routing, PathsAreContiguousAndShortest) {
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 3;
  const Topology t = make_multi_rack_tree(cfg);
  for (std::size_t a = 0; a < t.host_count(); ++a) {
    for (std::size_t b = 0; b < t.host_count(); ++b) {
      const auto& path = t.path(NodeId(a), NodeId(b));
      if (a == b) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      // Walk the path: each directed link must start where the previous
      // ended, from host a's vertex to host b's vertex.
      std::size_t cur = t.host_vertex(NodeId(a));
      for (const DirectedLink& dl : path) {
        const Link& l = t.link(dl.link);
        const std::size_t from = dl.reverse ? l.b : l.a;
        const std::size_t to = dl.reverse ? l.a : l.b;
        EXPECT_EQ(from, cur);
        cur = to;
      }
      EXPECT_EQ(cur, t.host_vertex(NodeId(b)));
    }
  }
}

TEST(Routing, SymmetricHopCounts) {
  TreeTopologyConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  const Topology t = make_multi_rack_tree(cfg);
  for (std::size_t a = 0; a < t.host_count(); ++a) {
    for (std::size_t b = 0; b < t.host_count(); ++b) {
      EXPECT_EQ(t.hops(NodeId(a), NodeId(b)), t.hops(NodeId(b), NodeId(a)));
    }
  }
}

TEST(Routing, DirectedIndexConvention) {
  const Topology t = make_single_rack(2);
  const auto& fwd = t.path(NodeId(0), NodeId(1));
  const auto& rev = t.path(NodeId(1), NodeId(0));
  ASSERT_EQ(fwd.size(), 2u);
  ASSERT_EQ(rev.size(), 2u);
  // The same physical links are traversed in opposite directions, so the
  // directed indices must all differ between the two paths.
  for (const auto& f : fwd) {
    for (const auto& r : rev) {
      if (f.link == r.link) {
        EXPECT_NE(f.directed_index(), r.directed_index());
      }
    }
  }
}

// FNV-1a over every ordered host pair's hop count followed by the directed
// link indices of its route. Also checks hops() == path().size() per pair.
std::uint64_t route_digest(const Topology& t) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  std::size_t size_mismatches = 0;
  for (std::size_t s = 0; s < t.host_count(); ++s) {
    for (std::size_t d = 0; d < t.host_count(); ++d) {
      const auto& route = t.path(NodeId(s), NodeId(d));
      const std::size_t hops = t.hops(NodeId(s), NodeId(d));
      if (hops != route.size()) ++size_mismatches;
      mix(hops);
      for (const DirectedLink& dl : route) mix(dl.directed_index());
    }
  }
  EXPECT_EQ(size_mismatches, 0u);
  return h;
}

// Pins every route the three factories produce: the links, their
// directions and (on the fat-tree) the ECMP choice of aggregation switch
// and core. Flows, records and digests all follow from these routes.
TEST(Routing, FactoryRoutesArePinned) {
  EXPECT_EQ(route_digest(make_single_rack(60)), 0x18d4559700d72865ull);
  TreeTopologyConfig tree;
  tree.racks = 4;
  tree.hosts_per_rack = 15;
  EXPECT_EQ(route_digest(make_multi_rack_tree(tree)), 0xd104de96245d0725ull);
  tree.racks = 3;
  tree.hosts_per_rack = 4;
  EXPECT_EQ(route_digest(make_multi_rack_tree(tree)), 0x923fb20e15f830e5ull);
  EXPECT_EQ(route_digest(make_fat_tree({.k = 4})), 0x4e01861743e74b25ull);
  EXPECT_EQ(route_digest(make_fat_tree({.k = 8})), 0x6e43279b2999a369ull);
  EXPECT_EQ(route_digest(make_fat_tree({.k = 16})), 0x1abbf5e3ecf3844dull);
}

TEST(HopDistanceProvider, MatchesTopologyHops) {
  TreeTopologyConfig tree;
  tree.racks = 4;
  tree.hosts_per_rack = 15;
  const Topology four_by_fifteen = make_multi_rack_tree(tree);
  tree.racks = 3;
  tree.hosts_per_rack = 4;
  const Topology three_by_four = make_multi_rack_tree(tree);
  const Topology rack = make_single_rack(60);
  const Topology k4 = make_fat_tree({.k = 4});
  const Topology k8 = make_fat_tree({.k = 8});
  const Topology k16 = make_fat_tree({.k = 16});
  for (const Topology* t :
       {&rack, &four_by_fifteen, &three_by_four, &k4, &k8, &k16}) {
    const HopDistanceProvider p(*t);
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < t->host_count(); ++a) {
      for (std::size_t b = 0; b < t->host_count(); ++b) {
        const double hops = double(t->hops(NodeId(a), NodeId(b)));
        if (p.distance(NodeId(a), NodeId(b), 0.0) != hops) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << t->host_count() << " hosts";
  }
}

TEST(DistanceMatrix, SetSymmetric) {
  DistanceMatrix m(3);
  m.set_symmetric(NodeId(0), NodeId(2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(NodeId(0), NodeId(2)), 7.0);
  EXPECT_DOUBLE_EQ(m.at(NodeId(2), NodeId(0)), 7.0);
  EXPECT_DOUBLE_EQ(m.at(NodeId(1), NodeId(1)), 0.0);
}

TEST(HopDistanceProvider, IsStatic) {
  const Topology t = make_single_rack(3);
  const HopDistanceProvider p(t);
  EXPECT_TRUE(p.is_static());
  EXPECT_DOUBLE_EQ(p.distance(NodeId(0), NodeId(1), 123.0), 2.0);
  EXPECT_DOUBLE_EQ(p.distance(NodeId(2), NodeId(2), 0.0), 0.0);
}

// Property sweep: every tree shape yields connected all-pairs routing.
class TopologyShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TopologyShapes, AllPairsRouted) {
  const auto [racks, hosts] = GetParam();
  TreeTopologyConfig cfg;
  cfg.racks = racks;
  cfg.hosts_per_rack = hosts;
  const Topology t = make_multi_rack_tree(cfg);
  for (std::size_t a = 0; a < t.host_count(); ++a) {
    for (std::size_t b = 0; b < t.host_count(); ++b) {
      if (a == b) continue;
      EXPECT_GE(t.hops(NodeId(a), NodeId(b)), 2u);
      EXPECT_LE(t.hops(NodeId(a), NodeId(b)), 4u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 10},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{4, 15},
                      std::pair<std::size_t, std::size_t>{8, 2}));

}  // namespace
}  // namespace mrs::net
