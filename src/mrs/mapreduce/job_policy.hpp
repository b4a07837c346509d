// Job-level scheduling policies (Sec. II-A: FIFO / Fair; the paper's
// experiments use Hadoop's default fair job scheduling for every task-level
// scheduler under test).
#pragma once

#include <vector>

#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/job_run.hpp"

namespace mrs::mapreduce {

enum class JobOrder {
  kFifo,          ///< strict submission order
  kFair,          ///< fewest-running-tasks first (equal-share)
  kWeightedFair,  ///< smallest running/weight ratio first (pool weights)
};

[[nodiscard]] constexpr const char* to_string(JobOrder o) {
  switch (o) {
    case JobOrder::kFifo: return "fifo";
    case JobOrder::kFair: return "fair";
    case JobOrder::kWeightedFair: return "weighted-fair";
  }
  return "?";
}

/// Active jobs that still have unassigned map tasks, in scheduling order.
[[nodiscard]] std::vector<JobRun*> jobs_for_maps(
    const Engine& engine, JobOrder order);

/// Active jobs that still have unassigned reduce tasks AND have passed the
/// engine's slowstart gate, in scheduling order.
[[nodiscard]] std::vector<JobRun*> jobs_for_reduces(
    const Engine& engine, JobOrder order);

/// Greedy locality-first map placement: assign the best-placed map
/// (JobRun::next_map_for) of the first job in `order` to `node`.
void assign_locality_first_map(Engine& engine, NodeId node, JobOrder order);

}  // namespace mrs::mapreduce
