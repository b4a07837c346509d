// Transmission-cost computation (Sec. II-B).
//
// Map cost is Eq. 1 (delegated to Engine::map_cost). This header adds the
// reduce-side machinery: the intermediate-data estimator (Eq. 3) and an
// aggregated evaluator for Eq. 2 that is efficient enough to score every
// (candidate reduce task, candidate node) pair at each scheduling decision.
//
// Eq. 2 naively sums over all m map tasks for every (i, f) pair. We
// aggregate first: W[p][f] = sum of (estimated) I_jf over maps j placed on
// node p, so C_r(i,f) = sum_p h_pi * W[p][f]. W is built only for the
// partitions the caller reads (a job's unassigned reduces), in
// O(placed maps x listed partitions) per decision; each cost evaluation is
// then O(#source nodes), and the distances behind it are fetched per
// candidate on first use (or, for the Eq. 5 average, as one column sum per
// source node).
#pragma once

#include <span>
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
/// the producing map runs on, for a list of partitions (reduce indices).
/// A default-constructed snapshot is empty; rebuild() refills it and
/// reuses its buffers.
class IntermediateSnapshot {
 public:
  IntermediateSnapshot() = default;
  /// Build from heartbeat-visible state at time `now`, over every
  /// partition. Maps that have not started reading (d_read == 0)
  /// contribute nothing — their output location/size is unknown to a real
  /// scheduler.
  IntermediateSnapshot(const mapreduce::JobRun& job, Seconds now,
                       EstimatorMode mode, std::size_t node_count);
  /// As above, over `partitions` only (distinct reduce indices).
  IntermediateSnapshot(const mapreduce::JobRun& job, Seconds now,
                       EstimatorMode mode, std::size_t node_count,
                       std::span<const std::size_t> partitions);

  /// Refill for `partitions` of `job` at `now`. Each (p, f) sum runs over
  /// the maps in index order whatever else is listed, so a listed entry
  /// has the same bits as in the full snapshot.
  void rebuild(const mapreduce::JobRun& job, Seconds now, EstimatorMode mode,
               std::size_t node_count,
               std::span<const std::size_t> partitions);

  /// Estimated bytes listed reduce `f` will pull from node `p`.
  [[nodiscard]] Bytes bytes_from(std::size_t p, std::size_t f) const {
    const std::size_t col = column(f);
    MRS_ASSERT(p < source_of_.size());
    const std::size_t s = source_of_[p];
    return s == kAbsent ? 0.0 : source_bytes(s, col);
  }

  /// Nodes that host any (estimated) intermediate data, ascending.
  [[nodiscard]] const std::vector<NodeId>& source_nodes() const {
    return sources_;
  }

  /// Estimated total input of listed reduce `f`.
  [[nodiscard]] Bytes total_for(std::size_t f) const {
    return totals_[column(f)];
  }

  /// Column of listed reduce `f`; fails for a partition not listed.
  [[nodiscard]] std::size_t column(std::size_t f) const {
    MRS_REQUIRE(f < column_of_.size() && column_of_[f] != kAbsent);
    return column_of_[f];
  }
  /// Estimated bytes the reduce in column `col` pulls from
  /// source_nodes()[s].
  [[nodiscard]] Bytes source_bytes(std::size_t s, std::size_t col) const {
    MRS_ASSERT(s < sources_.size() && col < partitions_.size());
    return w_[s * partitions_.size() + col];
  }

  [[nodiscard]] std::size_t reduce_count() const { return reduce_count_; }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  /// A placed map that reports data, with its per-map factors.
  struct Contributor {
    std::size_t map;
    std::size_t node;
    double ramp;      ///< p^alpha (1 for the oracle)
    double b_over_d;  ///< B_j / d_read for Eq. 3, else 1
  };

  std::size_t reduce_count_ = 0;
  std::vector<std::size_t> partitions_;  ///< column -> reduce index
  std::vector<std::size_t> column_of_;   ///< reduce index -> column
  std::vector<NodeId> sources_;
  std::vector<std::size_t> source_of_;   ///< node -> index in sources_
  std::vector<Bytes> w_;                 ///< [source][column], dense
  std::vector<Bytes> totals_;            ///< per column
  std::vector<Contributor> contributors_;
};

/// Scores reduce placements for one job at one scheduling decision: Eq. 2
/// as a dot product of a candidate's distance row with W's column. Rows
/// are fetched from a static provider when first read; a time-varying one
/// is read for every (candidate, source) pair up front. A
/// default-constructed evaluator is empty; reset() refills it and reuses
/// its buffers, so a scheduler keeps one across decisions.
class ReduceCostEvaluator {
 public:
  ReduceCostEvaluator() = default;
  /// `candidates` = nodes with free reduce slots (the N_r set); every
  /// reduce of `job` is listed.
  ReduceCostEvaluator(const mapreduce::Engine& engine,
                      const mapreduce::JobRun& job, EstimatorMode mode,
                      std::vector<NodeId> candidates);

  /// Re-point at a decision over `candidates` that reads only the reduces
  /// in `partitions`.
  void reset(const mapreduce::Engine& engine, const mapreduce::JobRun& job,
             EstimatorMode mode, std::span<const NodeId> candidates,
             std::span<const std::size_t> partitions);

  /// C_r(candidate_index, f) per Eq. 2/3.
  [[nodiscard]] double cost(std::size_t candidate_index,
                            std::size_t f) const;

  /// Average of cost(k, f) over all candidates — the C_r_ave of Eq. 5.
  /// Reassociated: sum_c sum_s dist[c,s]*W[s,f] = sum_s colsum[s]*W[s,f]
  /// with colsum[s] = sum_c dist[c,s] computed once per decision (by
  /// DistanceProvider::column_sums), so each call is O(#sources) instead
  /// of O(#candidates x #sources).
  [[nodiscard]] double average_cost(std::size_t f) const;

  [[nodiscard]] const std::vector<NodeId>& candidates() const {
    return candidates_;
  }
  /// Index of `node` among the candidates, which must hold it in
  /// ascending order (as the cluster's free-slot sets are).
  [[nodiscard]] std::size_t index_of(NodeId node) const;
  [[nodiscard]] const IntermediateSnapshot& snapshot() const {
    return snapshot_;
  }

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  /// h(source s, candidate c) for every source, fetched on first use.
  [[nodiscard]] const double* row(std::size_t c) const;

  IntermediateSnapshot snapshot_;
  std::vector<NodeId> candidates_;
  const net::DistanceProvider* distance_ = nullptr;
  Seconds now_ = 0.0;
  /// Distance rows in the order they were fetched; row_at_[c] is
  /// candidate c's offset, or kNoRow.
  mutable std::vector<double> dist_;
  mutable std::vector<std::size_t> row_at_;
  /// colsum_[s] = sum over candidates c of h(source s, c), once read.
  mutable std::vector<double> colsum_;
  mutable bool have_colsum_ = false;
};

}  // namespace mrs::core
