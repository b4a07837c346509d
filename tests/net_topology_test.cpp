// Tests for topology construction, routing and hop distances.
#include <gtest/gtest.h>

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

TEST(Builder, CustomGraph) {
  TopologyBuilder b;
  b.set_rack_count(2);
  const SwitchId s0 = b.add_switch("s0", RackId(0));
  const SwitchId s1 = b.add_switch("s1", RackId(1));
  const NodeId h0 = b.add_host("h0", RackId(0));
  const NodeId h1 = b.add_host("h1", RackId(1));
  b.connect_host_switch(h0, s0, units::Gbps(1));
  b.connect_host_switch(h1, s1, units::Gbps(1));
  b.connect_switches(s0, s1, units::Gbps(10));
  const Topology t = b.build();
  EXPECT_EQ(t.hops(h0, h1), 3u);
  EXPECT_FALSE(t.same_rack(h0, h1));
}

TEST(DistanceMatrix, FromHopsMatchesTopology) {
  TreeTopologyConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  const Topology t = make_multi_rack_tree(cfg);
  const DistanceMatrix m = DistanceMatrix::from_hops(t);
  for (std::size_t a = 0; a < t.host_count(); ++a) {
    for (std::size_t b = 0; b < t.host_count(); ++b) {
      EXPECT_DOUBLE_EQ(m.at(NodeId(a), NodeId(b)),
                       double(t.hops(NodeId(a), NodeId(b))));
    }
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
