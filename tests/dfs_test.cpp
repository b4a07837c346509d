// Tests for the block store and replica placement policies.
#include <gtest/gtest.h>

#include <set>

#include "mrs/dfs/block_store.hpp"

namespace mrs::dfs {
namespace {

using net::make_multi_rack_tree;
using net::make_single_rack;
using net::TreeTopologyConfig;

TEST(BlockStore, AddAndQuery) {
  BlockStore store(4);
  const BlockId id = store.add_block(128.0, {NodeId(1), NodeId(3)});
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_DOUBLE_EQ(store.block(id).size, 128.0);
  EXPECT_TRUE(store.is_replica(NodeId(1), id));
  EXPECT_TRUE(store.is_replica(NodeId(3), id));
  EXPECT_FALSE(store.is_replica(NodeId(0), id));
}

TEST(BlockStore, BytesPerNodeAccumulate) {
  BlockStore store(3);
  store.add_block(100.0, {NodeId(0), NodeId(1)});
  store.add_block(50.0, {NodeId(1)});
  EXPECT_DOUBLE_EQ(store.bytes_on_node(NodeId(0)), 100.0);
  EXPECT_DOUBLE_EQ(store.bytes_on_node(NodeId(1)), 150.0);
  EXPECT_DOUBLE_EQ(store.bytes_on_node(NodeId(2)), 0.0);
}

TEST(BlockStore, ReplicasSortedUnique) {
  BlockStore store(5);
  const BlockId id = store.add_block(1.0, {NodeId(4), NodeId(0), NodeId(2)});
  const auto& reps = store.replicas(id);
  EXPECT_EQ(reps.size(), 3u);
  EXPECT_TRUE(std::is_sorted(reps.begin(), reps.end()));
}

TEST(BlockPlacer, RandomPlacementDistinctNodes) {
  const auto topo = make_single_rack(10);
  BlockPlacer placer(&topo, Rng(1));
  for (int i = 0; i < 200; ++i) {
    const auto nodes = placer.place(3, PlacementPolicy::kRandom);
    std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(BlockPlacer, ReplicationClampedToClusterSize) {
  const auto topo = make_single_rack(2);
  BlockPlacer placer(&topo, Rng(2));
  const auto nodes = placer.place(5, PlacementPolicy::kRandom);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(BlockPlacer, HdfsWriterLocalFirstReplica) {
  const auto topo = make_single_rack(8);
  BlockPlacer placer(&topo, Rng(3));
  for (int i = 0; i < 50; ++i) {
    const auto nodes =
        placer.place(2, PlacementPolicy::kHdfsDefault, NodeId(5));
    EXPECT_EQ(nodes.front(), NodeId(5));
    EXPECT_NE(nodes[1], NodeId(5));
  }
}

TEST(BlockPlacer, HdfsSecondReplicaOffRack) {
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  const auto topo = make_multi_rack_tree(cfg);
  BlockPlacer placer(&topo, Rng(4));
  for (int i = 0; i < 100; ++i) {
    const auto nodes =
        placer.place(2, PlacementPolicy::kHdfsDefault, NodeId(0));
    EXPECT_FALSE(topo.same_rack(nodes[0], nodes[1]));
  }
}

TEST(BlockPlacer, HdfsThirdReplicaSameRackAsSecond) {
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  const auto topo = make_multi_rack_tree(cfg);
  BlockPlacer placer(&topo, Rng(5));
  int same_rack = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto nodes =
        placer.place(3, PlacementPolicy::kHdfsDefault, NodeId(0));
    if (topo.same_rack(nodes[1], nodes[2])) ++same_rack;
  }
  EXPECT_GT(same_rack, trials * 9 / 10);  // HDFS default rule
}

TEST(BlockPlacer, SkewedConcentratesOnHotSubset) {
  const auto topo = make_single_rack(20);
  BlockPlacer placer(&topo, Rng(6));
  int hot_hits = 0, total = 0;
  for (int i = 0; i < 400; ++i) {
    for (NodeId n : placer.place(2, PlacementPolicy::kSkewed)) {
      ++total;
      if (n.value() < 5) ++hot_hits;  // hot subset = first ceil(0.25*20)=5
    }
  }
  // ~85% target concentration; allow slack.
  EXPECT_GT(double(hot_hits) / total, 0.6);
}

TEST(IngestFile, SplitsIntoBlocks) {
  const auto topo = make_single_rack(6);
  BlockStore store(6);
  BlockPlacer placer(&topo, Rng(7));
  const auto ids = ingest_file(store, placer, 300.0, 128.0, 2,
                               PlacementPolicy::kRandom);
  ASSERT_EQ(ids.size(), 3u);  // 128 + 128 + 44
  EXPECT_DOUBLE_EQ(store.block(ids[0]).size, 128.0);
  EXPECT_DOUBLE_EQ(store.block(ids[1]).size, 128.0);
  EXPECT_DOUBLE_EQ(store.block(ids[2]).size, 44.0);
}

TEST(IngestFile, ExactMultiple) {
  const auto topo = make_single_rack(4);
  BlockStore store(4);
  BlockPlacer placer(&topo, Rng(8));
  const auto ids = ingest_file(store, placer, 256.0, 128.0, 1,
                               PlacementPolicy::kRandom);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(BlockPlacer, DeterministicGivenSeed) {
  const auto topo = make_single_rack(12);
  BlockPlacer a(&topo, Rng(99));
  BlockPlacer b(&topo, Rng(99));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.place(2, PlacementPolicy::kHdfsDefault),
              b.place(2, PlacementPolicy::kHdfsDefault));
  }
}

// Property: every policy returns the requested number of distinct replicas.
class PlacementPolicyProperty
    : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacementPolicyProperty, DistinctValidReplicas) {
  const auto topo = make_single_rack(9);
  BlockPlacer placer(&topo, Rng(10));
  for (std::size_t repl = 1; repl <= 4; ++repl) {
    for (int i = 0; i < 50; ++i) {
      const auto nodes = placer.place(repl, GetParam());
      EXPECT_EQ(nodes.size(), repl);
      std::set<NodeId> unique(nodes.begin(), nodes.end());
      EXPECT_EQ(unique.size(), repl);
      for (NodeId n : nodes) EXPECT_LT(n.value(), 9u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PlacementPolicyProperty,
                         ::testing::Values(PlacementPolicy::kRandom,
                                           PlacementPolicy::kHdfsDefault,
                                           PlacementPolicy::kSkewed));

}  // namespace
}  // namespace mrs::dfs
