#include "mrs/mapreduce/job_policy.hpp"

#include <algorithm>
#include <utility>

namespace mrs::mapreduce {

namespace {

/// Sort `jobs` into `order` by `running(job)`, the job's running tasks of
/// the kind being offered. Stable, so submission order breaks ties
/// deterministically.
template <typename Running>
std::vector<JobRun*> in_order(std::vector<JobRun*> jobs, JobOrder order,
                              Running running) {
  if (order == JobOrder::kFair) {
    // Fewest running tasks first.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const JobRun* a, const JobRun* b) {
                       return running(a) < running(b);
                     });
  } else if (order == JobOrder::kWeightedFair) {
    // Smallest deficit (running / weight) first: a weight-2 job deserves
    // twice the concurrent tasks of a weight-1 job. Cross-multiplied so no
    // division by the weight is needed — a zero/negative weight (rejected
    // at submit, but hostile specs exist) would otherwise yield inf/NaN
    // deficits and an invalid strict weak ordering (UB in stable_sort).
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const JobRun* a, const JobRun* b) {
                       return double(running(a)) * b->spec().weight <
                              double(running(b)) * a->spec().weight;
                     });
  }
  return jobs;
}

}  // namespace

std::vector<JobRun*> jobs_for_maps(const Engine& engine, JobOrder order) {
  std::vector<JobRun*> jobs;
  for (JobRun* job : engine.active_jobs()) {
    if (job->maps_unassigned() > 0) jobs.push_back(job);
  }
  return in_order(std::move(jobs), order,
                  [](const JobRun* j) { return j->maps_running(); });
}

std::vector<JobRun*> jobs_for_reduces(const Engine& engine, JobOrder order) {
  std::vector<JobRun*> jobs;
  for (JobRun* job : engine.active_jobs()) {
    if (job->reduces_unassigned() > 0 && engine.reduce_gate_open(*job)) {
      jobs.push_back(job);
    }
  }
  return in_order(std::move(jobs), order,
                  [](const JobRun* j) { return j->reduces_running(); });
}

void assign_locality_first_map(Engine& engine, NodeId node, JobOrder order) {
  const RackId rack = engine.topology().rack_of(node);
  for (JobRun* job : jobs_for_maps(engine, order)) {
    const MapPick pick = job->next_map_for(node, rack);
    if (pick.task < job->map_count()) {
      engine.assign_map(*job, pick.task, node);
      return;
    }
  }
}

}  // namespace mrs::mapreduce
