#include "mrs/sched/mincost.hpp"

#include <limits>

#include "mrs/mapreduce/job_policy.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;
using trace::DecisionOutcome;

void MinCostScheduler::offer_map(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_maps(engine, JobOrder::kFair)) {
    // Local task: zero cost, zero regret — always optimal here.
    const std::size_t local = job->next_local_map(node);
    if (local < job->map_count()) {
      if (decisions_ != nullptr) {
        auto rec = offer_record(engine, /*is_map=*/true, node);
        rec.job = job->id();
        rec.task = local;
        rec.locality =
            static_cast<int>(engine.map_locality(*job, local, node));
        rec.outcome = DecisionOutcome::kLocalFastPath;
        decisions_->record(rec);
      }
      engine.assign_map(*job, local, node);
      return;
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
      auto rec = offer_record(engine, /*is_map=*/true, node);
      rec.job = job->id();
      rec.task = best_task;
      rec.candidates = job->unassigned_maps().size();
      rec.cost = best_regret + best_floor;
      rec.cost_avg = best_floor;
      rec.locality =
          static_cast<int>(engine.map_locality(*job, best_task, node));
      rec.outcome = DecisionOutcome::kAssigned;
      decisions_->record(rec);
    }
    engine.assign_map(*job, best_task, node);
    return;
  }
  if (decisions_ != nullptr) {
    decisions_->record(offer_record(engine, /*is_map=*/true, node));
  }
}

void MinCostScheduler::offer_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
    if (job->has_reduce_on(node)) continue;
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;

    const auto& free_nodes = engine.cluster().nodes_with_free_reduce_slots();
    reduce_eval_.reset(engine, *job, core::EstimatorMode::kProjected,
                       free_nodes, unassigned);
    const core::ReduceCostEvaluator& eval = reduce_eval_;
    const std::size_t self = eval.index_of(node);

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
      auto rec = offer_record(engine, /*is_map=*/false, node);
      rec.job = job->id();
      rec.task = best_task;
      rec.candidates = unassigned.size();
      rec.cost = best_regret;
      rec.outcome = DecisionOutcome::kAssigned;
      decisions_->record(rec);
    }
    engine.assign_reduce(*job, best_task, node);
    return;
  }
  if (decisions_ != nullptr) {
    decisions_->record(offer_record(engine, /*is_map=*/false, node));
  }
}

}  // namespace mrs::sched
