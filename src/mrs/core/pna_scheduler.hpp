// The paper's contribution: Probabilistic Network-Aware task placement
// (Algorithms 1 and 2).
//
// On a heartbeat from node D_i, for each free slot the scheduler scores
// every unassigned task of the job chosen by the job-level policy: the
// task's transmission cost at D_i (Eq. 1 for maps, Eq. 2/3 for reduces)
// against the expected cost over all nodes with free slots, mapped to a
// probability P = 1 - e^{-C_ave/C_i} (Eq. 4/5). The max-P task is assigned
// with probability P unless P < P_min, in which case the slot is left for
// a better-placed task at a later heartbeat.
#pragma once

#include "mrs/common/rng.hpp"
#include "mrs/core/cost_model.hpp"
#include "mrs/core/probability.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::core {

struct PnaConfig {
  /// Probability threshold below which the slot is skipped (the paper
  /// selects 0.4 empirically on its testbed, Sec. III).
  double p_min = 0.4;
  /// Probability model (Eq. 4/5 by default; others for the ablation).
  ProbabilityModel model = ProbabilityModel::kExponential;
  /// Intermediate-size estimator (Eq. 3 by default; kCurrent reproduces
  /// the Coupling Scheduler's estimation for the ablation).
  EstimatorMode estimator = EstimatorMode::kProjected;
  /// Blend a compute term into the placement cost (heterogeneous
  /// clusters). 0 = the paper's pure network cost, untouched code path.
  /// With alpha in (0, 1], both the offered node's cost and the Eq. 4/5
  /// average become estimated seconds:
  ///   C = (1 - alpha) * bytes * distance / kReferenceBandwidth
  ///     + alpha * bytes / (rate * node_speed)
  /// so a fast node lowers its own cost relative to the average and
  /// attracts work even when its data is remote. The local-replica fast
  /// path is disabled when alpha > 0 (a local task on a slow node is no
  /// longer free).
  double cost_mix = 0.0;
  /// Use the closed-form C_ave numerator (Cluster::free_map_hops: the hop
  /// sum over N_m from the cluster's per-pod, per-rack and per-host
  /// free-map counts, O(replication) per candidate) — decision-identical
  /// to the naive scan, since both are exact integer sums. Off = sum
  /// every free node's nearest-replica hops per candidate task (the naive
  /// path the equivalence tests compare against).
  bool incremental_scoring = true;
};

class PnaScheduler final : public mapreduce::TaskScheduler {
 public:
  PnaScheduler(PnaConfig cfg, Rng rng);

  [[nodiscard]] const char* name() const override { return "probabilistic"; }
  [[nodiscard]] const PnaConfig& config() const { return cfg_; }

  /// Registers the scheduler's decision metrics: candidate-scan and
  /// cost-evaluation counters, the histogram of chosen P, and the P_min /
  /// Bernoulli skip counters (introspection of Algorithm 1/2 outcomes).
  void set_telemetry(telemetry::Registry* registry) override;

  /// Records every terminal per-offer outcome (assignment, local fast
  /// path, P_min skip, Bernoulli reject, no candidate) with the scored
  /// candidate count, best C_ij / C_ave / P, and the placement's
  /// distance class. Pure observation: no RNG use, no decision change.
  void set_decision_log(trace::DecisionLog* log) override {
    decisions_ = log;
  }

 private:
  /// Algorithm 1 for the first job in fair order.
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  /// Algorithm 2 for the first job in fair order without a reduce on
  /// `node`.
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;

  /// The max-P candidate of one offer's scan.
  struct Best {
    std::size_t task = 0;  ///< the job's task count while none is scored
    double p = -1.0;
    double c = 0.0;      ///< C_ij (C_if) at the offered node
    double c_ave = 0.0;  ///< average cost over the free nodes
    std::uint64_t candidates = 0;
  };

  /// Logs an offer's outcome when a decision log is attached; called
  /// before any assignment. Pure observation: it reads only what the scan
  /// computed. A placed map or reduce carries its locality class, a
  /// declined map the class it would have had; a declined reduce has
  /// none. `best` is a copy, so the scan's running best is never
  /// address-taken.
  void record(const mapreduce::Engine& engine, bool is_map, NodeId node,
              const mapreduce::JobRun& job, Best best,
              trace::DecisionOutcome outcome) const;

  /// Possibly-null cached metric pointers (telemetry::inc/observe
  /// tolerate null, so the uninstrumented hot path costs one branch).
  struct Metrics {
    telemetry::Counter* map_attempts = nullptr;
    telemetry::Counter* map_candidates = nullptr;
    telemetry::Counter* map_cost_evals = nullptr;
    telemetry::Counter* map_local_fastpath = nullptr;
    telemetry::Counter* map_pmin_skips = nullptr;
    telemetry::Counter* map_bernoulli_rejects = nullptr;
    telemetry::Counter* reduce_attempts = nullptr;
    telemetry::Counter* reduce_candidates = nullptr;
    telemetry::Counter* reduce_cost_evals = nullptr;
    telemetry::Counter* reduce_pmin_skips = nullptr;
    telemetry::Counter* reduce_bernoulli_rejects = nullptr;
    telemetry::Histogram* map_p = nullptr;     ///< chosen best P per draw
    telemetry::Histogram* reduce_p = nullptr;  ///< chosen best P per draw
    telemetry::TimerStat* score_wall = nullptr;
  };

  PnaConfig cfg_;
  Rng rng_;
  Metrics metrics_;
  /// Reduce-side scratch, refilled at every decision.
  ReduceCostEvaluator reduce_eval_;
  trace::DecisionLog* decisions_ = nullptr;
};

}  // namespace mrs::core
