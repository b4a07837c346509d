#include "mrs/dfs/block_store.hpp"

#include <algorithm>
#include <cmath>

namespace mrs::dfs {

BlockStore::BlockStore(std::size_t node_count)
    : node_count_(node_count), node_bytes_(node_count, 0.0) {
  MRS_REQUIRE(node_count >= 1);
}

BlockId BlockStore::add_block(Bytes size, std::vector<NodeId> replicas) {
  MRS_REQUIRE(size > 0.0);
  MRS_REQUIRE(!replicas.empty());
  std::sort(replicas.begin(), replicas.end());
  MRS_REQUIRE(std::adjacent_find(replicas.begin(), replicas.end()) ==
              replicas.end());
  for (NodeId n : replicas) {
    MRS_REQUIRE(n.value() < node_count_);
    node_bytes_[n.value()] += size;
  }
  const BlockId id(blocks_.size());
  blocks_.push_back({id, size, std::move(replicas)});
  return id;
}

const Block& BlockStore::block(BlockId id) const {
  MRS_REQUIRE(id.value() < blocks_.size());
  return blocks_[id.value()];
}

bool BlockStore::is_replica(NodeId node, BlockId block_id) const {
  const auto& reps = block(block_id).replicas;
  return std::binary_search(reps.begin(), reps.end(), node);
}

Bytes BlockStore::bytes_on_node(NodeId node) const {
  MRS_REQUIRE(node.value() < node_count_);
  return node_bytes_[node.value()];
}

BlockPlacer::BlockPlacer(const net::Topology* topo, Rng rng)
    : topo_(topo), rng_(std::move(rng)) {
  MRS_REQUIRE(topo_ != nullptr);
}

std::vector<NodeId> BlockPlacer::place(std::size_t replication,
                                       PlacementPolicy policy,
                                       std::optional<NodeId> writer) {
  const std::size_t n = topo_->host_count();
  MRS_REQUIRE(replication >= 1);
  replication = std::min(replication, n);

  std::vector<NodeId> chosen;
  chosen.reserve(replication);
  auto taken = [&](NodeId cand) {
    return std::find(chosen.begin(), chosen.end(), cand) != chosen.end();
  };
  auto pick_uniform_not_taken = [&]() {
    for (;;) {
      const NodeId cand(rng_.index(n));
      if (!taken(cand)) return cand;
    }
  };

  switch (policy) {
    case PlacementPolicy::kRandom: {
      while (chosen.size() < replication) {
        chosen.push_back(pick_uniform_not_taken());
      }
      break;
    }
    case PlacementPolicy::kHdfsDefault: {
      // Replica 1: the writer (data-local write), or a random node.
      const NodeId first = writer.value_or(NodeId(rng_.index(n)));
      chosen.push_back(first);
      // Replica 2: a different rack when one exists, else any other node.
      while (chosen.size() < std::min<std::size_t>(2, replication)) {
        const NodeId cand = pick_uniform_not_taken();
        if (topo_->rack_count() > 1 && topo_->same_rack(cand, first)) {
          continue;
        }
        chosen.push_back(cand);
      }
      // Replica 3: same rack as replica 2 when possible (HDFS default).
      if (replication >= 3) {
        const NodeId second = chosen[1];
        bool placed = false;
        for (std::size_t attempt = 0; attempt < 4 * n && !placed; ++attempt) {
          const NodeId cand(rng_.index(n));
          if (taken(cand)) continue;
          if (topo_->rack_count() > 1 && !topo_->same_rack(cand, second)) {
            continue;
          }
          chosen.push_back(cand);
          placed = true;
        }
        if (!placed) chosen.push_back(pick_uniform_not_taken());
      }
      // Further replicas: uniform random.
      while (chosen.size() < replication) {
        chosen.push_back(pick_uniform_not_taken());
      }
      break;
    }
    case PlacementPolicy::kSkewed: {
      // Hot subset [0, hot), a quarter of the nodes, absorbs most
      // replicas, modelling the NAS/SAN case the paper motivates (data
      // concentrated on a few nodes).
      constexpr double kHotFraction = 0.25;
      const auto hot = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(kHotFraction * static_cast<double>(n))));
      while (chosen.size() < replication) {
        const bool in_hot = rng_.bernoulli(0.85);
        const NodeId cand(in_hot ? rng_.index(hot) : rng_.index(n));
        if (!taken(cand)) chosen.push_back(cand);
      }
      break;
    }
  }
  MRS_ASSERT(chosen.size() == replication);
  return chosen;
}

std::vector<BlockId> ingest_file(BlockStore& store, BlockPlacer& placer,
                                 Bytes total_size, Bytes block_size,
                                 std::size_t replication,
                                 PlacementPolicy policy,
                                 std::optional<NodeId> writer) {
  MRS_REQUIRE(total_size > 0.0);
  MRS_REQUIRE(block_size > 0.0);
  std::vector<BlockId> ids;
  Bytes remaining = total_size;
  while (remaining > 0.0) {
    const Bytes this_block = std::min(remaining, block_size);
    ids.push_back(
        store.add_block(this_block, placer.place(replication, policy, writer)));
    remaining -= this_block;
  }
  return ids;
}

}  // namespace mrs::dfs
