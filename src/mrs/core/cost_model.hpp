// Transmission-cost computation (Sec. II-B).
//
// Map cost is Eq. 1 (delegated to Engine::map_cost). This header adds the
// reduce-side machinery: the intermediate-data estimator (Eq. 3) and an
// aggregated evaluator for Eq. 2 that is efficient enough to score every
// (candidate reduce task, candidate node) pair at each scheduling decision.
//
// Eq. 2 naively sums over all m map tasks for every (i, f) pair. We
// aggregate first: W[p][f] = sum of (estimated) I_jf over maps j placed on
// node p, so C_r(i,f) = sum_p h_pi * W[p][f]. Building W costs O(m*n) once
// per decision; each cost evaluation is then O(#source nodes).
#pragma once

#include <vector>

#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/job_run.hpp"

namespace mrs::core {

/// Converts bytes x distance network costs into seconds, commensurable
/// with compute terms (PNA's cost blend, the unrelated-machines baseline).
inline constexpr BytesPerSec kReferenceBandwidth = units::Gbps(1);

/// How the scheduler guesses the final intermediate size I_jf of a map
/// task that is still running.
enum class EstimatorMode {
  /// The paper's Eq. 3: project the current size by the input progress,
  /// I_jf ~= A_jf * B_j / d_read^j. Exact for linear emitters.
  kProjected,
  /// Coupling Scheduler's approach: use the current size A_jf as-is.
  kCurrent,
  /// Ground truth (upper bound for ablations; not available to a real
  /// scheduler).
  kOracle,
};

[[nodiscard]] constexpr const char* to_string(EstimatorMode m) {
  switch (m) {
    case EstimatorMode::kProjected: return "projected";
    case EstimatorMode::kCurrent: return "current";
    case EstimatorMode::kOracle: return "oracle";
  }
  return "?";
}

/// Per-job snapshot of estimated intermediate data, aggregated by the node
/// the producing map runs on.
class IntermediateSnapshot {
 public:
  /// Build from heartbeat-visible state at time `now`. Maps that have not
  /// started reading (d_read == 0) contribute nothing — their output
  /// location/size is unknown to a real scheduler.
  IntermediateSnapshot(const mapreduce::JobRun& job, Seconds now,
                       EstimatorMode mode, std::size_t node_count);

  /// Estimated bytes reduce `f` will pull from node `p`.
  [[nodiscard]] Bytes bytes_from(std::size_t p, std::size_t f) const {
    return w_[p * reduce_count_ + f];
  }

  /// Nodes that host any (estimated) intermediate data.
  [[nodiscard]] const std::vector<std::size_t>& source_nodes() const {
    return sources_;
  }

  /// Estimated total input of reduce `f`.
  [[nodiscard]] Bytes total_for(std::size_t f) const {
    return totals_[f];
  }

  [[nodiscard]] std::size_t reduce_count() const { return reduce_count_; }

 private:
  std::size_t reduce_count_;
  std::vector<Bytes> w_;  ///< [node][reduce], dense
  std::vector<Bytes> totals_;
  std::vector<std::size_t> sources_;
};

/// Scores reduce placements for one job at one scheduling decision.
/// Pre-resolves the distance sub-matrix between source nodes and candidate
/// nodes so each Eq. 2 evaluation is a dot product.
class ReduceCostEvaluator {
 public:
  /// `candidates` = nodes with free reduce slots (the N_r set).
  ReduceCostEvaluator(const mapreduce::Engine& engine,
                      const mapreduce::JobRun& job, EstimatorMode mode,
                      std::vector<NodeId> candidates);

  /// C_r(candidate_index, f) per Eq. 2/3.
  [[nodiscard]] double cost(std::size_t candidate_index,
                            std::size_t f) const;

  /// Average of cost(k, f) over all candidates — the C_r_ave of Eq. 5.
  /// Reassociated: sum_c sum_s dist[c,s]*W[s,f] = sum_s colsum[s]*W[s,f]
  /// with colsum[s] = sum_c dist[c,s] precomputed once per decision, so
  /// each call is O(#sources) instead of O(#candidates x #sources).
  [[nodiscard]] double average_cost(std::size_t f) const;

  [[nodiscard]] const std::vector<NodeId>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] const IntermediateSnapshot& snapshot() const {
    return snapshot_;
  }

 private:
  IntermediateSnapshot snapshot_;
  std::vector<NodeId> candidates_;
  /// dist_[c * sources + s] = h(source s, candidate c).
  std::vector<double> dist_;
  /// colsum_[s] = sum over candidates c of dist_[c * sources + s].
  std::vector<double> colsum_;
};

}  // namespace mrs::core
