// Fair Scheduler with Delay Scheduling (the paper's first baseline,
// Hadoop 1.2.1's fair scheduler [7] + [3]).
//
// Jobs share slots fairly (fewest-running-first, or smallest
// running/weight deficit with JobOrder::kWeightedFair). Map tasks wait for
// node-local slots: a job that cannot launch a node-local task on the
// offered node is skipped; after `node_local_delay` seconds of skipping it
// is allowed rack-local placements, and after another `rack_local_delay`
// any placement. Reduce tasks are placed *randomly* on offered slots (the
// paper: "randomly selects a reduce task to be assigned to an available
// reduce slot").
#pragma once

#include <unordered_map>

#include "mrs/common/rng.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::sched {

struct FairConfig {
  // Hadoop 1.2.1 autodetects the locality delay as ~1.5x the average
  // heartbeat interval (3 s) and splits it across the two levels.
  Seconds node_local_delay = 2.25;  ///< wait before accepting rack-local
  Seconds rack_local_delay = 2.25;  ///< further wait before accepting any
  /// Job ordering: kFair (equal share) or kWeightedFair (pool weights).
  mapreduce::JobOrder job_order = mapreduce::JobOrder::kFair;
};

class FairScheduler final : public mapreduce::TaskScheduler {
 public:
  /// Per-job Delay Scheduling state.
  struct DelayState {
    int level = 0;              ///< 0 node-local, 1 rack-local, 2 any
    Seconds wait_start = -1.0;  ///< first skip at the current level
  };

  explicit FairScheduler(FairConfig cfg, Rng rng)
      : cfg_(cfg), rng_(std::move(rng)) {}

  [[nodiscard]] const char* name() const override { return "fair"; }

  /// Evict the finished job's delay state: open-loop streams would
  /// otherwise grow `delay_` by one entry per job forever, and a recycled
  /// JobId value would inherit a stale escalation level.
  void on_job_finished(mapreduce::Engine& engine, JobId job) override;

  void set_telemetry(telemetry::Registry* registry) override;

  /// Record a skip at time `now`: starts the wait clock on the first skip
  /// and escalates the locality level through every threshold the elapsed
  /// wait already covers (a job skipped once after a long quiet gap jumps
  /// straight to the level its total wait has earned — the single-step
  /// version stranded it one level behind per heartbeat). Leftover wait
  /// beyond a crossed threshold is credited toward the next level.
  static void note_skip(DelayState& ds, Seconds now, const FairConfig& cfg);

  /// Jobs currently holding delay state (bounded by active jobs).
  [[nodiscard]] std::size_t delay_state_count() const {
    return delay_.size();
  }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;
  void count_tenant_assignment(TenantId tenant, bool is_map);

  FairConfig cfg_;
  Rng rng_;
  std::unordered_map<std::size_t, DelayState> delay_;  ///< by JobId value

  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* evictions_ = nullptr;
  telemetry::Counter* escalations_ = nullptr;
  /// Per-tenant assignment counters (fair.tenant.<id>.maps / .reduces),
  /// created lazily as tenants appear.
  std::unordered_map<std::size_t, telemetry::Counter*> tenant_maps_;
  std::unordered_map<std::size_t, telemetry::Counter*> tenant_reduces_;
};

}  // namespace mrs::sched
