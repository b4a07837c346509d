// Placement decision records: why a scheduler did (or did not) place a
// task at a heartbeat offer.
//
// Every terminal outcome of a per-offer scheduling pass is recorded —
// accepts *and* rejects — so a trace can answer "why is this slot
// idle": a P_min skip, a failed Bernoulli draw, or simply no runnable
// candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"

namespace mrs::trace {

enum class DecisionOutcome {
  kAssigned,         ///< candidate accepted and placed on the node
  kLocalFastPath,    ///< PNA Algorithm 1 local-replica shortcut (P = 1)
  kPminSkip,         ///< best P fell below P_min; offer declined
  kBernoulliReject,  ///< Bernoulli(P) draw came up reject
  kNoCandidate,      ///< no runnable task for this offer
};

inline constexpr std::size_t kDecisionOutcomeCount = 5;

[[nodiscard]] constexpr const char* to_string(DecisionOutcome o) {
  switch (o) {
    case DecisionOutcome::kAssigned: return "assigned";
    case DecisionOutcome::kLocalFastPath: return "local-fast-path";
    case DecisionOutcome::kPminSkip: return "pmin-skip";
    case DecisionOutcome::kBernoulliReject: return "bernoulli-reject";
    case DecisionOutcome::kNoCandidate: return "no-candidate";
  }
  return "unknown";
}

/// One terminal outcome of one per-offer scheduling pass.
struct PlacementDecisionRecord {
  Seconds time = 0.0;
  bool is_map = true;
  JobId job;                       ///< invalid() for kNoCandidate
  std::size_t task = SIZE_MAX;     ///< best/chosen task index in the job
  NodeId node;                     ///< the offering node
  std::size_t candidates = 0;      ///< candidate tasks scored this pass
  std::size_t free_nodes = 0;      ///< |N_m| or |N_r| at decision time
  double cost = 0.0;               ///< C_ij of the best candidate
  double cost_avg = 0.0;           ///< C_ave (PNA) / cost floor (mincost)
  double p = -1.0;                 ///< computed P; -1 if non-probabilistic
  int locality = -1;               ///< distance class of the placement
  DecisionOutcome outcome = DecisionOutcome::kNoCandidate;
};

/// Append-only decision sink handed to schedulers via
/// TaskScheduler::set_decision_log. Null pointer (the default) means
/// recording is off and schedulers skip all bookkeeping.
class DecisionLog {
 public:
  void record(const PlacementDecisionRecord& r) {
    records_.push_back(r);
    ++counts_[static_cast<std::size_t>(r.outcome)];
  }

  [[nodiscard]] const std::vector<PlacementDecisionRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t count(DecisionOutcome o) const {
    return counts_[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::vector<PlacementDecisionRecord> records_;
  std::size_t counts_[kDecisionOutcomeCount] = {};
};

}  // namespace mrs::trace
