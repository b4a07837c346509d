#include "mrs/hetero/unrelated.hpp"

#include <limits>

#include "mrs/mapreduce/job_policy.hpp"

namespace mrs::hetero {

using core::kReferenceBandwidth;
using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;

void UnrelatedScheduler::set_telemetry(telemetry::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  telemetry::Registry& r = *registry;
  metrics_.map_assignments = &r.counter("unrelated.map.assignments");
  metrics_.map_candidates = &r.counter("unrelated.map.candidates_scanned");
  metrics_.reduce_assignments = &r.counter("unrelated.reduce.assignments");
  metrics_.reduce_candidates =
      &r.counter("unrelated.reduce.candidates_scanned");
  metrics_.map_est_seconds =
      &r.histogram("unrelated.map.est_seconds", 0.0, 120.0, 24);
  metrics_.reduce_est_seconds =
      &r.histogram("unrelated.reduce.est_seconds", 0.0, 600.0, 24);
}

void UnrelatedScheduler::offer_map(Engine& engine, NodeId node) {
  const double speed = engine.cluster().node(node).speed_factor;
  MRS_ASSERT(speed > 0.0);
  for (JobRun* job : jobs_for_maps(engine, JobOrder::kFair)) {
    const double map_rate = job->spec().map_rate;
    double best_time = std::numeric_limits<double>::max();
    std::size_t best_task = job->map_count();
    std::uint64_t candidates = 0;
    for (std::size_t j : job->unassigned_maps()) {
      ++candidates;
      // Eq. 1's transfer cost in seconds plus the speed-scaled compute
      // time: the p_ij of the unrelated-machines model.
      const double bytes = job->spec().map_tasks[j].input_size;
      const double net = engine.map_cost(*job, j, node) / kReferenceBandwidth;
      const double compute = bytes / (map_rate * speed);
      const double p_ij = net + compute;
      if (p_ij < best_time) {
        best_time = p_ij;
        best_task = j;
      }
    }
    telemetry::inc(metrics_.map_candidates, candidates);
    if (best_task == job->map_count()) continue;
    telemetry::inc(metrics_.map_assignments);
    telemetry::observe(metrics_.map_est_seconds, best_time);
    if (decisions_ != nullptr) {
      auto rec = offer_record(engine, /*is_map=*/true, node);
      rec.job = job->id();
      rec.task = best_task;
      rec.candidates = candidates;
      rec.cost = best_time;
      rec.locality =
          static_cast<int>(engine.map_locality(*job, best_task, node));
      rec.outcome = trace::DecisionOutcome::kAssigned;
      decisions_->record(rec);
    }
    engine.assign_map(*job, best_task, node);
    return;
  }
  if (decisions_ != nullptr) {
    decisions_->record(offer_record(engine, /*is_map=*/true, node));
  }
}

void UnrelatedScheduler::offer_reduce(Engine& engine, NodeId node) {
  const double speed = engine.cluster().node(node).speed_factor;
  for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
    if (job->has_reduce_on(node)) continue;
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;

    reduce_eval_.reset(engine, *job, core::EstimatorMode::kProjected,
                       engine.cluster().nodes_with_free_reduce_slots(),
                       unassigned);
    const core::ReduceCostEvaluator& eval = reduce_eval_;
    const std::size_t self = eval.index_of(node);

    const double reduce_rate = job->spec().reduce_rate;
    double best_time = std::numeric_limits<double>::max();
    std::size_t best_task = job->reduce_count();
    std::uint64_t candidates = 0;
    for (std::size_t f : unassigned) {
      ++candidates;
      const double net = eval.cost(self, f) / kReferenceBandwidth;
      const double compute = eval.snapshot().total_for(f) /
                             (reduce_rate * speed);
      const double p_if = net + compute;
      if (p_if < best_time) {
        best_time = p_if;
        best_task = f;
      }
    }
    telemetry::inc(metrics_.reduce_candidates, candidates);
    if (best_task == job->reduce_count()) continue;
    telemetry::inc(metrics_.reduce_assignments);
    telemetry::observe(metrics_.reduce_est_seconds, best_time);
    if (decisions_ != nullptr) {
      auto rec = offer_record(engine, /*is_map=*/false, node);
      rec.job = job->id();
      rec.task = best_task;
      rec.candidates = candidates;
      rec.cost = best_time;
      rec.outcome = trace::DecisionOutcome::kAssigned;
      decisions_->record(rec);
    }
    engine.assign_reduce(*job, best_task, node);
    return;
  }
  if (decisions_ != nullptr) {
    decisions_->record(offer_record(engine, /*is_map=*/false, node));
  }
}

}  // namespace mrs::hetero
