// Greedy min-completion-time scheduling on unrelated machines.
//
// The Fotakis et al. line ("Scheduling MapReduce Jobs and Data Shuffle on
// Unrelated Processors") models each (task, machine) pair with its own
// processing time p_ij and builds assignments from per-pair estimated
// completion times. Adapted to heartbeat granularity: when node i reports
// a free slot, the scheduler walks the jobs in fair order and assigns
// the pending task with the smallest estimated service time *on i*,
//
//   map:    p_ij = B_j * h_min(j,i) / kReferenceBandwidth
//                  + B_j / (map_rate * speed_i)
//   reduce: p_if = C_r(i,f) / kReferenceBandwidth
//                  + total_f / (reduce_rate * speed_i)
//
// i.e. the network transfer term the PNA cost model already computes plus
// the compute term the executing node's class determines. Algorithm 2's
// no-colocation rule holds, so reduce spreading matches the other
// schedulers' constraint set. Deterministic (no probability relaxation)
// and compute-aware — the adversarial baseline for PNA on heterogeneous
// clusters.
#pragma once

#include "mrs/core/cost_model.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::hetero {

class UnrelatedScheduler final : public mapreduce::TaskScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "unrelated"; }

  void set_telemetry(telemetry::Registry* registry) override;

  /// Records per-offer outcomes for trace explainability. `cost` is the
  /// chosen candidate's p_ij in estimated seconds; `p` stays -1 (this
  /// baseline is deterministic).
  void set_decision_log(trace::DecisionLog* log) override {
    decisions_ = log;
  }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;

  struct Metrics {
    telemetry::Counter* map_assignments = nullptr;
    telemetry::Counter* map_candidates = nullptr;
    telemetry::Counter* reduce_assignments = nullptr;
    telemetry::Counter* reduce_candidates = nullptr;
    telemetry::Histogram* map_est_seconds = nullptr;
    telemetry::Histogram* reduce_est_seconds = nullptr;
  };

  Metrics metrics_;
  trace::DecisionLog* decisions_ = nullptr;
  core::ReduceCostEvaluator reduce_eval_;  ///< refilled per decision
};

}  // namespace mrs::hetero
