// Heterogeneous-cluster node classes.
//
// Every result before this subsystem ran on identical machines. Real
// clusters are not: racks are bought in generations, so CPU speed, slot
// counts, disk throughput and NIC rates differ per node — the "unrelated
// machines" regime of Fotakis et al. (PAPERS.md). A NodeClassProfile
// assigns each node to a named class (fast-rack / slow-rack /
// straggler-prone / ...) and resolves the per-node execution parameters
// the cluster, engine and topology consume:
//
//   cpu_speed   -> NodeState::speed_factor (map/reduce compute scales)
//   map/reduce_slots, disk_rate -> per-node NodeConfig
//   link_scale  -> multiplies the host's NIC link capacity in the topology
//
// Class membership is drawn on labeled RNG sub-streams
// ("hetero-node%zu-class"), so node i's class is invariant to unrelated
// config changes — the same contract as the PR 5 tenant streams. An empty
// profile is the homogeneous baseline and must be a provable no-op (the
// equivalence tests pin this byte-identically).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mrs/cluster/cluster.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::hetero {

/// One named machine class with its execution parameters. Defaults match
/// the homogeneous paper cluster (4 map + 2 reduce slots, speed 1).
struct NodeClass {
  std::string name = "default";
  /// Relative share of nodes assigned to this class (weighted draw).
  double weight = 1.0;
  /// CPU speed multiplier applied to JobSpec map_rate / reduce_rate.
  double cpu_speed = 1.0;
  std::size_t map_slots = 4;
  std::size_t reduce_slots = 2;
  BytesPerSec disk_rate = 150.0 * units::kMiB;
  /// Multiplier on the host's access-link capacity (NIC generation).
  double link_scale = 1.0;
};

/// How nodes are mapped to classes.
enum class AssignMode {
  /// Per-node weighted draw on the labeled sub-stream (default).
  kWeighted,
  /// Class = rack id modulo class count — whole racks share a class
  /// (the fast-rack / slow-rack study in `bench_paper hetero_sweep`).
  kByRack,
};

[[nodiscard]] constexpr const char* to_string(AssignMode m) {
  switch (m) {
    case AssignMode::kWeighted: return "weighted";
    case AssignMode::kByRack: return "by-rack";
  }
  return "?";
}

struct HeteroConfig {
  /// Empty = heterogeneity disabled (the homogeneous baseline).
  std::vector<NodeClass> classes;
  AssignMode assign = AssignMode::kWeighted;

  [[nodiscard]] bool enabled() const { return !classes.empty(); }
};

/// MRS_REQUIREs every class parameter (weights > 0 with a positive sum,
/// positive speeds / slot counts / disk and link rates, non-empty unique
/// names). Called by the profile constructor; CLI ingest re-checks with
/// friendlier messages before reaching this.
void validate(const HeteroConfig& cfg);

/// Immutable node -> class assignment plus the resolved per-node
/// parameters. Default-constructed = disabled (every accessor that needs
/// classes requires enabled()).
class NodeClassProfile {
 public:
  NodeClassProfile() = default;

  /// Assign `node_count` nodes. `topo` supplies rack ids for
  /// AssignMode::kByRack; the weighted mode draws each node's class from
  /// root.split("hetero-node<i>-class").
  NodeClassProfile(const HeteroConfig& cfg, const net::Topology& topo,
                   const Rng& root);

  [[nodiscard]] bool enabled() const { return !classes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return assignment_.size(); }
  [[nodiscard]] std::size_t class_count() const { return classes_.size(); }

  [[nodiscard]] const NodeClass& cls(std::size_t c) const {
    MRS_REQUIRE(c < classes_.size());
    return classes_[c];
  }
  [[nodiscard]] std::size_t class_index(NodeId n) const {
    MRS_REQUIRE(n.value() < assignment_.size());
    return assignment_[n.value()];
  }
  [[nodiscard]] const NodeClass& node_class(NodeId n) const {
    return classes_[class_index(n)];
  }
  /// Nodes assigned to class `c`.
  [[nodiscard]] std::size_t class_size(std::size_t c) const {
    MRS_REQUIRE(c < counts_.size());
    return counts_[c];
  }

  /// Resolved per-node cluster configs: class slots / disk / speed with
  /// `base` supplying everything classes do not own (speed_spread jitters
  /// *around* the class speed).
  [[nodiscard]] std::vector<cluster::NodeConfig> node_configs(
      const cluster::NodeConfig& base) const;

  [[nodiscard]] std::vector<std::string> class_names() const;

  /// Per-host access-link capacity multipliers for
  /// net::Topology::scale_host_link_capacities.
  [[nodiscard]] std::vector<double> link_scales() const;

 private:
  std::vector<NodeClass> classes_;
  std::vector<std::size_t> assignment_;  ///< node -> class index
  std::vector<std::size_t> counts_;      ///< class -> node count
};

}  // namespace mrs::hetero
