// HDFS-like block storage model.
//
// The map-task cost model (Eq. 1) needs, for every map task, the set of
// nodes holding a replica of its input block (the binary L matrix of
// Table I) and the block size B_j. This module models file ingestion into
// fixed-size blocks placed by a replication policy; no actual bytes are
// stored.
#pragma once

#include <optional>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::dfs {

struct Block {
  BlockId id;
  Bytes size = 0.0;
  std::vector<NodeId> replicas;  ///< nodes holding a copy (de-duplicated)
};

/// Catalog of all blocks in the simulated DFS.
class BlockStore {
 public:
  explicit BlockStore(std::size_t node_count);

  /// Register a block; replicas must be distinct valid nodes, size > 0.
  BlockId add_block(Bytes size, std::vector<NodeId> replicas);

  [[nodiscard]] const Block& block(BlockId id) const;
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  /// The L matrix: does `node` store a replica of `block`?
  [[nodiscard]] bool is_replica(NodeId node, BlockId block) const;

  [[nodiscard]] const std::vector<NodeId>& replicas(BlockId id) const {
    return block(id).replicas;
  }

  /// Total bytes stored on a node (for balance checks / Table stats).
  [[nodiscard]] Bytes bytes_on_node(NodeId node) const;

 private:
  std::size_t node_count_;
  std::vector<Block> blocks_;
  std::vector<Bytes> node_bytes_;
};

/// Replica placement policies.
enum class PlacementPolicy {
  kRandom,       ///< replicas on uniformly random distinct nodes
  kHdfsDefault,  ///< writer-local first replica, then rack-aware spread
  kSkewed,       ///< replicas concentrated on a hot subset of nodes
};

/// Chooses replica node sets according to a policy. Deterministic given its
/// Rng stream.
class BlockPlacer {
 public:
  BlockPlacer(const net::Topology* topo, Rng rng);

  /// Pick `replication` distinct nodes for one block. `writer`, when given,
  /// anchors the HDFS-default policy's first replica.
  [[nodiscard]] std::vector<NodeId> place(
      std::size_t replication, PlacementPolicy policy,
      std::optional<NodeId> writer = std::nullopt);

 private:
  const net::Topology* topo_;
  Rng rng_;
};

/// Split `total_size` into `block_size` chunks (last one short), place each
/// with the policy, register in `store`, and return the block IDs.
/// `writer`, when given, is used as the HDFS-default anchor for all blocks.
std::vector<BlockId> ingest_file(BlockStore& store, BlockPlacer& placer,
                                 Bytes total_size, Bytes block_size,
                                 std::size_t replication,
                                 PlacementPolicy policy,
                                 std::optional<NodeId> writer = std::nullopt);

}  // namespace mrs::dfs
