#include "mrs/sched/coupling.hpp"

#include <algorithm>
#include <cmath>

#include "mrs/mapreduce/job_policy.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;
using mapreduce::Locality;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;

void CouplingScheduler::offer_map(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_maps(engine, JobOrder::kFair)) {
    // Prefer a node-local task when one exists (always accepted) ...
    const std::size_t pick = job->next_local_map(node);
    if (pick < job->map_count()) {
      engine.assign_map(*job, pick, node);
      return;
    }
    // ... otherwise randomly pick one and accept it with the coarse
    // locality-class probability.
    const auto unassigned = job->unassigned_maps();
    if (unassigned.empty()) continue;
    const std::size_t j = unassigned[rng_.index(unassigned.size())];
    const Locality loc = engine.map_locality(*job, j, node);
    const double p = loc == Locality::kRackLocal
                         ? cfg_.rack_local_probability
                         : cfg_.remote_probability;
    if (rng_.bernoulli(p)) {
      engine.assign_map(*job, j, node);
      return;
    }
    // Rejected: leave the slot for the next heartbeat / next job.
  }
}

std::size_t CouplingScheduler::reduce_quota(const JobRun& job) const {
  // Launch reduces in proportion to map progress ("coupling"): at least
  // one once the slowstart gate opened, all of them when maps are done.
  const double progress = job.map_finished_fraction();
  return static_cast<std::size_t>(
      std::ceil(progress * static_cast<double>(job.reduce_count())));
}

void CouplingScheduler::offer_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
    if (job->has_reduce_on(node)) continue;  // no co-located reduces
    const std::size_t launched = job->reduce_count() -
                                 job->reduces_unassigned();
    if (launched >= reduce_quota(*job)) continue;  // coupled gate closed

    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;
    const std::size_t f = unassigned.front();  // launch in index order
    auto& state = job->reduce_state(f);

    // Score the offered node against the best free node using the
    // *current* intermediate data (no projection) and coarse-grained
    // machine/rack distances — both deliberate: they are exactly what the
    // paper contrasts its estimator and fine-grained cost against.
    const std::vector<NodeId>& n_r =
        engine.cluster().nodes_with_free_reduce_slots();
    const std::size_t listed[] = {f};
    snapshot_.rebuild(*job, engine.now(), core::EstimatorMode::kCurrent,
                      engine.cluster().node_count(), listed);
    const core::IntermediateSnapshot& snap = snapshot_;
    const auto coarse = [&](NodeId a, NodeId b) {
      if (a == b) return 0.0;
      return engine.topology().same_rack(a, b) ? 2.0 : 4.0;
    };
    double best = std::numeric_limits<double>::max();
    double here = 0.0;
    for (const NodeId c : n_r) {
      double cost = 0.0;
      for (const NodeId s : snap.source_nodes()) {
        cost += coarse(s, c) * snap.bytes_from(s.value(), f);
      }
      best = std::min(best, cost);
      if (c == node) here = cost;
    }

    const bool central_enough = here <= best * cfg_.centrality_tolerance;
    if (central_enough || state.postpone_count >= cfg_.max_postpones) {
      engine.assign_reduce(*job, f, node);
      return;
    }
    ++state.postpone_count;  // wait for a more central slot
  }
}

}  // namespace mrs::sched
