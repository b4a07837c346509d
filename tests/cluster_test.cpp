// Tests for the slot-based cluster model and the heartbeat service.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mrs/cluster/cluster.hpp"
#include "mrs/cluster/heartbeat.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::cluster {
namespace {

TEST(Cluster, InitialSlots) {
  const auto topo = net::make_single_rack(5);
  NodeConfig cfg;
  cfg.map_slots = 4;
  cfg.reduce_slots = 2;
  Cluster c(&topo, cfg, Rng(1));
  EXPECT_EQ(c.node_count(), 5u);
  EXPECT_EQ(c.total_map_slots(), 20u);
  EXPECT_EQ(c.total_reduce_slots(), 10u);
  EXPECT_EQ(c.busy_map_slots(), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c.node(NodeId(i)).free_map_slots(), 4u);
    EXPECT_EQ(c.node(NodeId(i)).free_reduce_slots(), 2u);
  }
}

TEST(Cluster, OccupyRelease) {
  const auto topo = net::make_single_rack(2);
  Cluster c(&topo, NodeConfig{}, Rng(1));
  c.occupy_map_slot(NodeId(0));
  c.occupy_map_slot(NodeId(0));
  EXPECT_EQ(c.node(NodeId(0)).free_map_slots(), 2u);
  EXPECT_EQ(c.busy_map_slots(), 2u);
  c.release_map_slot(NodeId(0));
  EXPECT_EQ(c.node(NodeId(0)).free_map_slots(), 3u);
  c.occupy_reduce_slot(NodeId(1));
  EXPECT_EQ(c.busy_reduce_slots(), 1u);
  c.release_reduce_slot(NodeId(1));
  EXPECT_EQ(c.busy_reduce_slots(), 0u);
}

TEST(Cluster, FreeSlotLists) {
  const auto topo = net::make_single_rack(3);
  NodeConfig cfg;
  cfg.map_slots = 1;
  cfg.reduce_slots = 1;
  Cluster c(&topo, cfg, Rng(1));
  c.occupy_map_slot(NodeId(1));
  const auto maps = c.nodes_with_free_map_slots();
  EXPECT_EQ(maps, (std::vector<NodeId>{NodeId(0), NodeId(2)}));
  c.occupy_reduce_slot(NodeId(0));
  c.occupy_reduce_slot(NodeId(2));
  const auto reduces = c.nodes_with_free_reduce_slots();
  EXPECT_EQ(reduces, (std::vector<NodeId>{NodeId(1)}));
}

// The incremental free-slot index must match a naive scan after every
// kind of mutation: assignment (occupy), completion (release), task kill
// (release), node failure (drain) and recovery.
TEST(Cluster, FreeSlotIndexMatchesNaiveScan) {
  const auto topo = net::make_single_rack(6);
  NodeConfig cfg;
  cfg.map_slots = 2;
  cfg.reduce_slots = 1;
  Cluster fast(&topo, cfg, Rng(3));
  Cluster naive(&topo, cfg, Rng(3));
  naive.set_naive_free_scan(true);

  const auto check = [&] {
    EXPECT_EQ(fast.nodes_with_free_map_slots(),
              naive.nodes_with_free_map_slots());
    EXPECT_EQ(fast.nodes_with_free_reduce_slots(),
              naive.nodes_with_free_reduce_slots());
    EXPECT_EQ(fast.busy_map_slots(), naive.busy_map_slots());
    EXPECT_EQ(fast.busy_reduce_slots(), naive.busy_reduce_slots());
  };
  const auto both = [&](auto&& op) {
    op(fast);
    op(naive);
    check();
  };

  check();  // initial: everyone free
  // Fill node 1 completely (leaves the map set at the second occupy).
  both([](Cluster& c) { c.occupy_map_slot(NodeId(1)); });
  both([](Cluster& c) { c.occupy_map_slot(NodeId(1)); });
  both([](Cluster& c) { c.occupy_reduce_slot(NodeId(1)); });
  // Partial occupancy elsewhere (no membership change for maps).
  both([](Cluster& c) { c.occupy_map_slot(NodeId(4)); });
  both([](Cluster& c) { c.occupy_reduce_slot(NodeId(0)); });
  // Finish: node 1 re-enters both sets in sorted position.
  both([](Cluster& c) { c.release_map_slot(NodeId(1)); });
  both([](Cluster& c) { c.release_reduce_slot(NodeId(1)); });
  // Kill path: the engine releases the victim's slots, then drains the
  // node; a dead node must leave both sets even with zero busy slots.
  both([](Cluster& c) { c.release_map_slot(NodeId(4)); });
  both([](Cluster& c) { c.set_node_alive(NodeId(4), false); });
  both([](Cluster& c) { c.set_node_alive(NodeId(4), false); });  // no-op
  // Recovery restores membership.
  both([](Cluster& c) { c.set_node_alive(NodeId(4), true); });

  // Node 1 still holds one busy map slot but has one free again, so every
  // node is back in the map set.
  EXPECT_EQ(fast.nodes_with_free_map_slots().size(), 6u);
  EXPECT_EQ(fast.busy_map_slots(), 1u);
}

// The per-pod, per-rack and per-host counts of N_m behind free_map_hops()
// must equal a rescan of the free-map set after every occupy, release,
// failure, recovery and probation toggle, on topologies with and without
// a pod level.
TEST(Cluster, FreeMapCountsMatchARescan) {
  std::vector<net::Topology> shapes;
  shapes.push_back(net::make_fat_tree({.k = 4}));
  shapes.push_back(net::make_multi_rack_tree(
      {.racks = 3, .hosts_per_rack = 4}));
  shapes.push_back(net::make_single_rack(5));
  Rng rng(7);
  for (const net::Topology& topo : shapes) {
    NodeConfig cfg;
    cfg.map_slots = 2;
    Cluster c(&topo, cfg, Rng(1));
    const auto check = [&](int step) {
      for (std::size_t h = 0; h < topo.host_count(); ++h) {
        const net::Coords mine = topo.coords_of(NodeId(h));
        for (std::size_t level = 0; level < mine.size(); ++level) {
          if (mine[level] == net::kNoCoord) continue;
          std::size_t rescan = 0;
          for (std::size_t o = 0; o < topo.host_count(); ++o) {
            const NodeId other(o);
            if (c.node(other).free_map_slots() > 0 &&
                topo.coords_of(other)[level] == mine[level]) {
              ++rescan;
            }
          }
          ASSERT_EQ(c.free_map_nodes_at(mine[level]), rescan)
              << topo.host_count() << " hosts, step " << step << ", host "
              << h << ", level " << level;
        }
      }
    };
    check(-1);
    for (int step = 0; step < 400; ++step) {
      const NodeId n(rng.index(topo.host_count()));
      const NodeState& s = c.node(n);
      switch (rng.index(5)) {
        case 0:  // assignment
          if (s.free_map_slots() > 0) c.occupy_map_slot(n);
          break;
        case 1:  // completion or kill
          if (s.busy_map_slots > 0) c.release_map_slot(n);
          break;
        case 2:  // failure: the engine releases the node's slots first
          while (c.node(n).busy_map_slots > 0) c.release_map_slot(n);
          while (c.node(n).busy_reduce_slots > 0) c.release_reduce_slot(n);
          c.set_node_alive(n, false);
          break;
        case 3:  // recovery
          c.set_node_alive(n, true);
          break;
        default:  // blacklist probation on or off
          c.set_node_schedulable(n, !s.schedulable);
          break;
      }
      check(step);
    }
  }
}

TEST(Cluster, SpeedFactorsWithinSpread) {
  const auto topo = net::make_single_rack(50);
  NodeConfig cfg;
  cfg.speed_spread = 0.2;
  Cluster c(&topo, cfg, Rng(5));
  bool varied = false;
  for (std::size_t i = 0; i < 50; ++i) {
    const double f = c.node(NodeId(i)).speed_factor;
    EXPECT_GE(f, 0.8);
    EXPECT_LE(f, 1.2);
    if (f != 1.0) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(Cluster, NoSpreadMeansUnitSpeed) {
  const auto topo = net::make_single_rack(4);
  Cluster c(&topo, NodeConfig{}, Rng(5));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(c.node(NodeId(i)).speed_factor, 1.0);
  }
}

TEST(Cluster, SpeedDrawsUseLabeledStreams) {
  // Each node's jitter comes from rng.split("node<i>-speed"), so the draw
  // for node i is a pure function of (seed, i, spread) — growing the
  // cluster must not reshuffle the factors of existing nodes.
  NodeConfig cfg;
  cfg.speed_spread = 0.2;
  const auto small_topo = net::make_single_rack(4);
  const auto large_topo = net::make_single_rack(16);
  const Cluster small(&small_topo, cfg, Rng(5));
  const Cluster large(&large_topo, cfg, Rng(5));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(small.node(NodeId(i)).speed_factor,
                     large.node(NodeId(i)).speed_factor)
        << "node " << i;
  }
}

TEST(Cluster, SpeedDrawsArePinned) {
  // Regression pin for the labeled speed streams: these literals are the
  // factors drawn for seed 5, spread 0.2. A change here means every
  // seeded experiment with speed_spread > 0 silently re-randomized.
  NodeConfig cfg;
  cfg.speed_spread = 0.2;
  const auto topo = net::make_single_rack(3);
  const Cluster c(&topo, cfg, Rng(5));
  const double expected[3] = {0.91699959375779783, 0.89495417224712825,
                              1.0112635133515473};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(c.node(NodeId(i)).speed_factor, expected[i])
        << "node " << i;
  }
}

TEST(Cluster, PerNodeConfigsCarryClassParameters) {
  const auto topo = net::make_single_rack(3);
  NodeConfig fast;
  fast.map_slots = 8;
  fast.reduce_slots = 4;
  fast.base_speed = 2.0;
  fast.class_index = 0;
  NodeConfig slow;
  slow.map_slots = 1;
  slow.reduce_slots = 1;
  slow.base_speed = 0.5;
  slow.class_index = 1;
  const std::vector<NodeConfig> per_node = {fast, slow, fast};
  Cluster c(&topo, per_node, {"fast", "slow"}, Rng(1));
  EXPECT_TRUE(c.has_node_classes());
  EXPECT_EQ(c.class_count(), 2u);
  EXPECT_EQ(c.class_name(0), "fast");
  EXPECT_EQ(c.class_name(1), "slow");
  EXPECT_EQ(c.total_map_slots(), 17u);
  EXPECT_EQ(c.total_reduce_slots(), 9u);
  EXPECT_EQ(c.node_class(NodeId(1)), 1u);
  // base_speed with zero spread is exact — no jitter draw is consumed.
  EXPECT_DOUBLE_EQ(c.node(NodeId(0)).speed_factor, 2.0);
  EXPECT_DOUBLE_EQ(c.node(NodeId(1)).speed_factor, 0.5);
  EXPECT_DOUBLE_EQ(c.node(NodeId(2)).speed_factor, 2.0);
}

TEST(Cluster, HomogeneousClusterReportsSingleDefaultClass) {
  const auto topo = net::make_single_rack(2);
  const Cluster c(&topo, NodeConfig{}, Rng(1));
  EXPECT_FALSE(c.has_node_classes());
  EXPECT_EQ(c.class_count(), 1u);
  EXPECT_EQ(c.class_name(0), "default");
  EXPECT_EQ(c.node_class(NodeId(1)), 0u);
}

TEST(Heartbeat, OneBeatPerNodePerInterval) {
  sim::Simulation s;
  HeartbeatService hb(&s, 4, 3.0);
  std::vector<int> beats(4, 0);
  hb.start([&](NodeId n) {
    ++beats[n.value()];
    if (s.now() > 29.0) hb.stop();
  });
  s.run(30.0);
  for (int b : beats) EXPECT_EQ(b, 10);  // 30s / 3s = 10 rounds
}

TEST(Heartbeat, PhasesAreStriped) {
  sim::Simulation s;
  HeartbeatService hb(&s, 3, 3.0);
  std::vector<Seconds> first_beat(3, -1.0);
  int seen = 0;
  hb.start([&](NodeId n) {
    if (first_beat[n.value()] < 0.0) {
      first_beat[n.value()] = s.now();
      if (++seen == 3) hb.stop();
    }
  });
  s.run(4.0);
  EXPECT_DOUBLE_EQ(first_beat[0], 0.0);
  EXPECT_DOUBLE_EQ(first_beat[1], 1.0);
  EXPECT_DOUBLE_EQ(first_beat[2], 2.0);
}

TEST(Heartbeat, StopDrainsQueue) {
  sim::Simulation s;
  HeartbeatService hb(&s, 5, 3.0);
  hb.start([&](NodeId) {
    if (s.now() >= 9.0) hb.stop();
  });
  s.run();  // must terminate (no infinite rescheduling)
  EXPECT_LT(s.now(), 13.0);
  EXPECT_GT(hb.beats_delivered(), 0u);
}

TEST(Heartbeat, BeatsCounted) {
  sim::Simulation s;
  HeartbeatService hb(&s, 2, 1.0);
  std::size_t seen = 0;
  hb.start([&](NodeId) {
    ++seen;
    if (seen == 6) hb.stop();
  });
  s.run();
  EXPECT_EQ(hb.beats_delivered(), 6u);
}

}  // namespace
}  // namespace mrs::cluster
