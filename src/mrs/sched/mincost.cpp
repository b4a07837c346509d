#include "mrs/sched/mincost.hpp"

#include <limits>

#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;
using trace::DecisionOutcome;

namespace {

trace::PlacementDecisionRecord make_record(
    Engine& engine, bool is_map, const JobRun* job, std::size_t task,
    NodeId node, std::size_t candidates, std::size_t free_nodes, double cost,
    double floor, int locality, DecisionOutcome outcome) {
  trace::PlacementDecisionRecord rec;
  rec.time = engine.now();
  rec.is_map = is_map;
  rec.job = job != nullptr ? job->id() : JobId::invalid();
  rec.task = task;
  rec.node = node;
  rec.candidates = candidates;
  rec.free_nodes = free_nodes;
  rec.cost = cost;
  rec.cost_avg = floor;
  rec.locality = locality;
  rec.outcome = outcome;
  return rec;
}

}  // namespace

void MinCostScheduler::on_heartbeat(Engine& engine, NodeId node) {
  while (engine.map_budget_left() > 0 &&
         engine.cluster().node(node).free_map_slots() > 0) {
    if (!try_map(engine, node)) break;
  }
  while (engine.reduce_budget_left() > 0 &&
         engine.cluster().node(node).free_reduce_slots() > 0) {
    if (!try_reduce(engine, node)) break;
  }
}

bool MinCostScheduler::try_map(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_maps(engine, JobOrder::kFair)) {
    // Local task: zero cost, zero regret — always optimal here.
    const std::size_t local = job->next_local_map(node);
    if (local < job->map_count()) {
      engine.assign_map(*job, local, node);
      if (decisions_ != nullptr) {
        decisions_->record(make_record(
            engine, /*is_map=*/true, job, local, node, /*candidates=*/0,
            engine.cluster().nodes_with_free_map_slots().size(),
            /*cost=*/0.0, /*floor=*/0.0,
            static_cast<int>(job->map_state(local).locality),
            DecisionOutcome::kLocalFastPath));
      }
      return true;
    }
    const auto& free_nodes = engine.cluster().nodes_with_free_map_slots();
    double best_regret = std::numeric_limits<double>::max();
    double best_floor = 0.0;
    std::size_t best_task = job->map_count();
    for (std::size_t j : job->unassigned_maps()) {
      const double here = engine.map_cost(*job, j, node);
      double floor = here;
      for (NodeId k : free_nodes) {
        floor = std::min(floor, engine.map_cost(*job, j, k));
      }
      const double regret = here - floor;
      if (regret < best_regret) {
        best_regret = regret;
        best_floor = floor;
        best_task = j;
      }
    }
    if (best_task == job->map_count()) continue;
    if (decisions_ != nullptr) {
      decisions_->record(make_record(
          engine, /*is_map=*/true, job, best_task, node,
          job->unassigned_maps().size(), free_nodes.size(),
          best_regret + best_floor, best_floor,
          static_cast<int>(engine.map_locality(*job, best_task, node)),
          DecisionOutcome::kAssigned));
    }
    engine.assign_map(*job, best_task, node);
    return true;
  }
  if (decisions_ != nullptr) {
    decisions_->record(make_record(
        engine, /*is_map=*/true, nullptr, SIZE_MAX, node, 0,
        engine.cluster().nodes_with_free_map_slots().size(), 0.0, 0.0, -1,
        DecisionOutcome::kNoCandidate));
  }
  return false;
}

bool MinCostScheduler::try_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
    if (job->has_reduce_on(node)) continue;
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;

    const auto& free_nodes = engine.cluster().nodes_with_free_reduce_slots();
    reduce_eval_.reset(engine, *job, core::EstimatorMode::kProjected,
                       free_nodes, unassigned);
    const core::ReduceCostEvaluator& eval = reduce_eval_;
    std::size_t self = free_nodes.size();
    for (std::size_t c = 0; c < free_nodes.size(); ++c) {
      if (free_nodes[c] == node) self = c;
    }
    MRS_ASSERT(self < free_nodes.size());

    double best_regret = std::numeric_limits<double>::max();
    std::size_t best_task = job->reduce_count();
    for (std::size_t f : unassigned) {
      const double here = eval.cost(self, f);
      double floor = here;
      for (std::size_t c = 0; c < free_nodes.size(); ++c) {
        floor = std::min(floor, eval.cost(c, f));
      }
      const double regret = here - floor;
      if (regret < best_regret) {
        best_regret = regret;
        best_task = f;
      }
    }
    if (best_task == job->reduce_count()) continue;
    if (decisions_ != nullptr) {
      decisions_->record(make_record(
          engine, /*is_map=*/false, job, best_task, node, unassigned.size(),
          free_nodes.size(), best_regret, 0.0, -1,
          DecisionOutcome::kAssigned));
    }
    engine.assign_reduce(*job, best_task, node);
    return true;
  }
  if (decisions_ != nullptr) {
    decisions_->record(make_record(
        engine, /*is_map=*/false, nullptr, SIZE_MAX, node, 0,
        engine.cluster().nodes_with_free_reduce_slots().size(), 0.0, 0.0, -1,
        DecisionOutcome::kNoCandidate));
  }
  return false;
}

}  // namespace mrs::sched
