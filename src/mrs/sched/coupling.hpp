// Coupling Scheduler baseline (Tan et al., INFOCOM'13 [5] / HPDC'12 [17]),
// implemented from the paper's description of it (Sec. I, III):
//
//  * Map side: "for an available map task slot, a randomly picked map task
//    is assigned to it with a probability that balances data locality and
//    resource utilization" — the probability depends only on the coarse
//    locality class (node / rack / off-rack) of the offered slot.
//  * Reduce side: reduce tasks launch gradually, coupled to map progress;
//    each waits for a slot on the data-"centrality" node (the node
//    minimising the transfer cost of the *current* intermediate data), and
//    is postponed at most three heartbeat rounds before being assigned to
//    whatever slot is on offer.
//  * Never runs two reduce tasks of one job on the same node.
#pragma once

#include <unordered_map>

#include "mrs/common/rng.hpp"
#include "mrs/core/cost_model.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::sched {

struct CouplingConfig {
  /// Probability of accepting a rack-local / off-rack map placement.
  double rack_local_probability = 0.7;
  double remote_probability = 0.3;
  /// Max heartbeat rounds a reduce task waits for its centrality node.
  std::size_t max_postpones = 3;
  /// Offered node is "central enough" when its current-data cost is within
  /// this factor of the best free node's cost.
  double centrality_tolerance = 1.1;
};

class CouplingScheduler final : public mapreduce::TaskScheduler {
 public:
  CouplingScheduler(CouplingConfig cfg, Rng rng)
      : cfg_(cfg), rng_(std::move(rng)) {}

  [[nodiscard]] const char* name() const override { return "coupling"; }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;

  /// Reduce tasks a job may have launched so far under progress coupling.
  [[nodiscard]] std::size_t reduce_quota(
      const mapreduce::JobRun& job) const;

  CouplingConfig cfg_;
  Rng rng_;
  core::IntermediateSnapshot snapshot_;  ///< refilled per decision
};

}  // namespace mrs::sched
