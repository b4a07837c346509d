#include "mrs/sched/fair.hpp"

#include "mrs/common/strfmt.hpp"

namespace mrs::sched {

using mapreduce::Engine;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;
using mapreduce::JobRun;
using mapreduce::MapPick;

void FairScheduler::on_job_finished(Engine& /*engine*/, JobId job) {
  if (delay_.erase(job.value()) > 0) telemetry::inc(evictions_);
}

void FairScheduler::set_telemetry(telemetry::Registry* registry) {
  registry_ = registry;
  tenant_maps_.clear();
  tenant_reduces_.clear();
  if (registry == nullptr) {
    evictions_ = escalations_ = nullptr;
    return;
  }
  evictions_ = &registry->counter("fair.delay.evictions");
  escalations_ = &registry->counter("fair.delay.escalations");
}

void FairScheduler::note_skip(DelayState& ds, Seconds now,
                              const FairConfig& cfg) {
  if (ds.wait_start < 0.0) ds.wait_start = now;
  while (ds.level < 2) {
    const Seconds threshold =
        ds.level == 0 ? cfg.node_local_delay : cfg.rack_local_delay;
    if (now - ds.wait_start < threshold) break;
    ++ds.level;
    ds.wait_start += threshold;  // credit leftover wait to the next level
  }
}

void FairScheduler::count_tenant_assignment(TenantId tenant, bool is_map) {
  if (registry_ == nullptr) return;
  auto& cache = is_map ? tenant_maps_ : tenant_reduces_;
  auto [it, inserted] = cache.emplace(tenant.value(), nullptr);
  if (inserted) {
    it->second = &registry_->counter(strf("fair.tenant.%zu.%s",
                                          tenant.value(),
                                          is_map ? "maps" : "reduces"));
  }
  telemetry::inc(it->second);
}

void FairScheduler::offer_map(Engine& engine, NodeId node) {
  const Seconds now = engine.now();
  const RackId rack = engine.topology().rack_of(node);
  for (JobRun* job : jobs_for_maps(engine, cfg_.job_order)) {
    DelayState& ds = delay_[job->id().value()];

    // Best locality rank this node can offer the job.
    const MapPick pick = job->next_map_for(node, rack);
    if (pick.task == job->map_count()) continue;

    if (pick.rank <= ds.level) {
      engine.assign_map(*job, pick.task, node);
      count_tenant_assignment(job->spec().tenant, /*is_map=*/true);
      if (pick.rank == 0) {
        // Launching locally resets the job's delay state (Delay
        // Scheduling's "reset wait when a local task launches").
        ds.level = 0;
        ds.wait_start = -1.0;
      }
      return;
    }

    // Skip: the node can't serve the job at its current locality level.
    const int before = ds.level;
    note_skip(ds, now, cfg_);
    for (int l = before; l < ds.level; ++l) telemetry::inc(escalations_);
  }
}

void FairScheduler::offer_reduce(Engine& engine, NodeId node) {
  for (JobRun* job : jobs_for_reduces(engine, cfg_.job_order)) {
    const auto unassigned = job->unassigned_reduces();
    if (unassigned.empty()) continue;
    const std::size_t pick = unassigned[rng_.index(unassigned.size())];
    engine.assign_reduce(*job, pick, node);
    count_tenant_assignment(job->spec().tenant, /*is_map=*/false);
    return;
  }
}

}  // namespace mrs::sched
