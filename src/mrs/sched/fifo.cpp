#include "mrs/sched/fifo.hpp"

#include "mrs/mapreduce/job_policy.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;

void FifoScheduler::offer_map(Engine& engine, NodeId node) {
  mapreduce::assign_locality_first_map(engine, node, JobOrder::kFifo);
}

void FifoScheduler::offer_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : mapreduce::jobs_for_reduces(engine, JobOrder::kFifo)) {
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;
    engine.assign_reduce(*job, unassigned.front(), node);
    return;
  }
}

}  // namespace mrs::sched
