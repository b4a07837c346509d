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
  /// Use the incremental C_ave fast path (per-job row sums over the
  /// cluster's free-slot index, patched on membership toggles) when the
  /// job's static costs are integral — decision-identical to the naive
  /// full scan (integer sums in double are exact). Off = recompute the
  /// Eq. 4 average by scanning every free node per candidate task (the
  /// naive path the equivalence tests compare against).
  bool incremental_scoring = true;
};

class PnaScheduler final : public mapreduce::TaskScheduler {
 public:
  PnaScheduler(PnaConfig cfg, Rng rng);

  [[nodiscard]] const char* name() const override { return "probabilistic"; }
  [[nodiscard]] const PnaConfig& config() const { return cfg_; }

  void on_heartbeat(mapreduce::Engine& engine, NodeId node) override;

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

  // --- statistics (for tests and the micro bench) ---
  [[nodiscard]] std::size_t map_attempts() const { return map_attempts_; }
  [[nodiscard]] std::size_t map_skips() const { return map_skips_; }
  [[nodiscard]] std::size_t reduce_attempts() const {
    return reduce_attempts_;
  }
  [[nodiscard]] std::size_t reduce_skips() const { return reduce_skips_; }

 private:
  /// Algorithm 1 on `node` for `job`; true if a map task was assigned.
  bool schedule_map(mapreduce::Engine& engine, mapreduce::JobRun& job,
                    NodeId node);
  /// Algorithm 2 on `node` for `job`; true if a reduce task was assigned.
  bool schedule_reduce(mapreduce::Engine& engine, mapreduce::JobRun& job,
                       NodeId node);

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
  std::size_t map_attempts_ = 0;
  std::size_t map_skips_ = 0;
  std::size_t reduce_attempts_ = 0;
  std::size_t reduce_skips_ = 0;
};

}  // namespace mrs::core
