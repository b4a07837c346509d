// Quincy-inspired deterministic min-regret scheduler (Isard et al.,
// SOSP'09 — the paper's [20], adapted to heartbeat granularity).
//
// Quincy solves a global min-cost matching between tasks and slots. A
// heartbeat-driven engine only ever places onto the reporting node, so the
// global objective degenerates to a regret rule: among the job's pending
// tasks, place the one whose cost *here* exceeds its best achievable cost
// anywhere by the least (regret = C_ij - min_k C_kj). Zero-regret
// placements are exactly the min-cost matching's greedy column step.
// Deterministic — the adversarial contrast to the paper's probabilistic
// relaxation (cf. the probability-model ablation's "greedy").
#pragma once

#include "mrs/core/cost_model.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::sched {

class MinCostScheduler final : public mapreduce::TaskScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "mincost"; }

  /// Records per-offer outcomes (local/regret assignment, no candidate)
  /// for trace explainability. For this deterministic baseline `cost` is
  /// the chosen placement's cost here and `cost_avg` its best-anywhere
  /// floor; `p` stays -1.
  void set_decision_log(trace::DecisionLog* log) override {
    decisions_ = log;
  }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;

  trace::DecisionLog* decisions_ = nullptr;
  core::ReduceCostEvaluator reduce_eval_;  ///< refilled per decision
};

}  // namespace mrs::sched
