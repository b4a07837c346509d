#include "mrs/core/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace mrs::core {

using mapreduce::JobRun;
using mapreduce::MapPhase;

namespace {

std::vector<std::size_t> every_partition(const JobRun& job) {
  std::vector<std::size_t> all(job.reduce_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace

IntermediateSnapshot::IntermediateSnapshot(const JobRun& job, Seconds now,
                                           EstimatorMode mode,
                                           std::size_t node_count)
    : IntermediateSnapshot(job, now, mode, node_count,
                           every_partition(job)) {}

IntermediateSnapshot::IntermediateSnapshot(
    const JobRun& job, Seconds now, EstimatorMode mode,
    std::size_t node_count, std::span<const std::size_t> partitions) {
  rebuild(job, now, mode, node_count, partitions);
}

void IntermediateSnapshot::rebuild(const JobRun& job, Seconds now,
                                   EstimatorMode mode,
                                   std::size_t node_count,
                                   std::span<const std::size_t> partitions) {
  // Forget the previous build's sources and columns, touching only them.
  for (const NodeId p : sources_) source_of_[p.value()] = kAbsent;
  for (const std::size_t f : partitions_) column_of_[f] = kAbsent;
  if (source_of_.size() != node_count) source_of_.assign(node_count, kAbsent);
  reduce_count_ = job.reduce_count();
  if (column_of_.size() < reduce_count_) {
    column_of_.resize(reduce_count_, kAbsent);
  }
  partitions_.assign(partitions.begin(), partitions.end());
  const std::size_t cols = partitions_.size();
  for (std::size_t k = 0; k < cols; ++k) {
    const std::size_t f = partitions_[k];
    MRS_REQUIRE(f < reduce_count_ && column_of_[f] == kAbsent);
    column_of_[f] = k;
  }

  // Pass 1: the placed maps that report data, each with its ramp and
  // B_j / d_read computed once rather than once per partition.
  contributors_.clear();
  sources_.clear();
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const auto& m = job.map_state(j);
    if (m.phase == MapPhase::kUnassigned ||
        m.phase == MapPhase::kBackoff) {
      continue;  // location unknown (or attempt stall-killed, no output)
    }
    double ramp = 1.0;
    double b_over_d = 1.0;
    if (mode != EstimatorMode::kOracle) {
      const double progress = job.map_progress(j, now);
      if (progress <= 0.0) continue;  // d_read == 0: nothing reported yet
      // Heartbeat-visible A_jf = I_jf * ramp (kCurrent uses it as-is).
      ramp = job.emit_ramp(progress);
      if (mode == EstimatorMode::kProjected) {
        // Eq. 3: A_jf * B_j / d_read with d_read = B_j * progress.
        const Bytes input = job.spec().map_tasks[j].input_size;
        const Bytes d_read = input * progress;
        MRS_ASSERT(d_read > 0.0);
        b_over_d = input / d_read;
      }
    }
    const std::size_t p = m.node.value();
    MRS_ASSERT(p < node_count);
    if (source_of_[p] == kAbsent) {
      source_of_[p] = 0;  // seen; numbered once sources_ is sorted
      sources_.push_back(m.node);
    }
    contributors_.push_back({j, p, ramp, b_over_d});
  }
  std::sort(sources_.begin(), sources_.end());
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    source_of_[sources_[s].value()] = s;
  }

  // Pass 2: W and the totals, maps in index order. The product order
  // (I_jf * ramp) * B_j/d_read is current_partition(j, f) * B_j/d_read;
  // the factors of 1 leave kCurrent's and the oracle's values exact.
  w_.assign(sources_.size() * cols, 0.0);
  totals_.assign(cols, 0.0);
  for (const Contributor& c : contributors_) {
    Bytes* w = w_.data() + source_of_[c.node] * cols;
    for (std::size_t k = 0; k < cols; ++k) {
      const Bytes est =
          job.final_partition(c.map, partitions_[k]) * c.ramp * c.b_over_d;
      w[k] += est;
      totals_[k] += est;
    }
  }
}

ReduceCostEvaluator::ReduceCostEvaluator(const mapreduce::Engine& engine,
                                         const JobRun& job,
                                         EstimatorMode mode,
                                         std::vector<NodeId> candidates) {
  reset(engine, job, mode, candidates, every_partition(job));
}

void ReduceCostEvaluator::reset(const mapreduce::Engine& engine,
                                const JobRun& job, EstimatorMode mode,
                                std::span<const NodeId> candidates,
                                std::span<const std::size_t> partitions) {
  snapshot_.rebuild(job, engine.now(), mode, engine.cluster().node_count(),
                    partitions);
  candidates_.assign(candidates.begin(), candidates.end());
  distance_ = &engine.distance_provider();
  now_ = engine.now();
  dist_.clear();
  row_at_.assign(candidates_.size(), kNoRow);
  have_colsum_ = false;
  if (distance_->is_static()) return;  // rows and sums fetched when read

  // A time-varying provider is read in full now, in candidate order, so
  // its queries do not depend on which costs the caller reads.
  const auto& sources = snapshot_.source_nodes();
  colsum_.assign(sources.size(), 0.0);
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    row_at_[c] = dist_.size();
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const double d = distance_->distance(sources[s], candidates_[c], now_);
      dist_.push_back(d);
      colsum_[s] += d;
    }
  }
  have_colsum_ = true;
}

std::size_t ReduceCostEvaluator::index_of(NodeId node) const {
  const auto it =
      std::lower_bound(candidates_.begin(), candidates_.end(), node);
  MRS_ASSERT(it != candidates_.end() && *it == node);
  return static_cast<std::size_t>(it - candidates_.begin());
}

const double* ReduceCostEvaluator::row(std::size_t c) const {
  MRS_ASSERT(c < candidates_.size());
  if (row_at_[c] == kNoRow) {
    row_at_[c] = dist_.size();
    for (const NodeId s : snapshot_.source_nodes()) {
      dist_.push_back(distance_->distance(s, candidates_[c], now_));
    }
  }
  return dist_.data() + row_at_[c];
}

double ReduceCostEvaluator::cost(std::size_t candidate_index,
                                 std::size_t f) const {
  const std::size_t col = snapshot_.column(f);
  const std::size_t sources = snapshot_.source_nodes().size();
  const double* h = row(candidate_index);
  double total = 0.0;
  for (std::size_t s = 0; s < sources; ++s) {
    total += h[s] * snapshot_.source_bytes(s, col);
  }
  return total;
}

double ReduceCostEvaluator::average_cost(std::size_t f) const {
  MRS_REQUIRE(!candidates_.empty());
  const std::size_t col = snapshot_.column(f);
  const auto& sources = snapshot_.source_nodes();
  if (!have_colsum_) {
    colsum_.resize(sources.size());
    distance_->column_sums(sources, candidates_, now_, colsum_);
    have_colsum_ = true;
  }
  double sum = 0.0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    sum += colsum_[s] * snapshot_.source_bytes(s, col);
  }
  return sum / static_cast<double>(candidates_.size());
}

}  // namespace mrs::core
