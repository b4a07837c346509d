#include "mrs/sched/larts.hpp"

#include "mrs/mapreduce/job_policy.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;

void LartsScheduler::offer_map(Engine& engine, NodeId node) {
  mapreduce::assign_locality_first_map(engine, node, JobOrder::kFair);
}

void LartsScheduler::offer_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : mapreduce::jobs_for_reduces(engine, JobOrder::kFair)) {
    if (job->has_reduce_on(node)) continue;
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;

    // Current (not projected) intermediate sizes: LARTS predates the
    // paper's Eq. 3 estimation.
    snapshot_.rebuild(*job, engine.now(), core::EstimatorMode::kCurrent,
                      engine.cluster().node_count(), unassigned);
    const core::IntermediateSnapshot& snap = snapshot_;
    const auto& free_nodes = engine.cluster().nodes_with_free_reduce_slots();

    // Among unassigned reduces, pick the one for which this node hosts the
    // largest share; accept if that share is near the best free node's.
    std::size_t best_task = job->reduce_count();
    double best_here = -1.0;
    for (std::size_t f : unassigned) {
      const double here = snap.bytes_from(node.value(), f);
      if (here > best_here) {
        best_here = here;
        best_task = f;
      }
    }
    if (best_task == job->reduce_count()) continue;

    double best_free = 0.0;
    for (NodeId k : free_nodes) {
      best_free = std::max(best_free, snap.bytes_from(k.value(), best_task));
    }

    auto& state = job->reduce_state(best_task);
    const bool close_enough =
        best_free <= 0.0 || best_here >= cfg_.share_tolerance * best_free;
    if (close_enough || state.postpone_count >= cfg_.max_postpones) {
      engine.assign_reduce(*job, best_task, node);
      return;
    }
    ++state.postpone_count;
  }
}

}  // namespace mrs::sched
