// LARTS baseline (Hammoud & Sakr, CloudCom'11 — the paper's [4]):
// locality-aware reduce task scheduling. Reduce tasks are placed "as close
// to their maximum amount of input data as possible": a reduce is accepted
// on the offered node only when that node hosts (close to) the largest
// share of the task's current intermediate data among free nodes; otherwise
// the task waits, up to a bounded number of rounds. Map scheduling is plain
// locality-first (LARTS only changes the reduce side).
#pragma once

#include "mrs/core/cost_model.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::sched {

struct LartsConfig {
  /// Accept the offer when the node's hosted share is at least this
  /// fraction of the best free node's share.
  double share_tolerance = 0.8;
  /// Bounded patience, like the sweet-spot variant of the LARTS paper.
  std::size_t max_postpones = 5;
};

class LartsScheduler final : public mapreduce::TaskScheduler {
 public:
  explicit LartsScheduler(LartsConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const char* name() const override { return "larts"; }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;

  LartsConfig cfg_;
  core::IntermediateSnapshot snapshot_;  ///< refilled per decision
};

}  // namespace mrs::sched
