// Runtime state of one job: per-task phases, placements, timings, and the
// intermediate-data ground truth the shuffle and the cost model consume.
//
// The ground-truth intermediate matrix I (I_jf = bytes map j produces for
// reduce f, Table I) is drawn at construction from the job's selectivity,
// jitter and partition-skew parameters. While a map runs, its reported
// progress (d_read, Table I) and current partition sizes (A_jf) are derived
// from the execution model: d_read = B_j * p and A_jf = I_jf * p^alpha for
// progress p, so a scheduler only ever sees what a real heartbeat would
// carry.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/stats.hpp"
#include "mrs/common/units.hpp"
#include "mrs/mapreduce/job.hpp"
#include "mrs/net/topology.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::mapreduce {

/// A map chosen by JobRun::next_map_for and its rung on the ladder.
struct MapPick {
  std::size_t task = 0;
  int rank = 0;  ///< 0 node-local, 1 rack-local, 2 any
};

enum class MapPhase {
  kUnassigned,
  kStartup,
  kFetching,
  kComputing,
  kDone,
  /// Killed after a transfer stall; waiting out the retry backoff before
  /// returning to the unassigned pool. Invisible to schedulers (the
  /// placement cursors only match kUnassigned).
  kBackoff,
};
enum class ReducePhase {
  kUnassigned,
  kStartup,
  kShuffling,   ///< waiting for / fetching map outputs
  kComputing,   ///< sort + reduce function
  kDone,
  kBackoff,     ///< stall-killed, waiting out the retry backoff
};

/// One run of a map task on a node: the task's primary attempt or its
/// speculative backup copy (Hadoop speculative execution: launched when
/// the primary lags; whichever attempt finishes first wins, the other is
/// killed).
struct MapAttempt {
  NodeId node;  ///< placement (valid once assigned)
  MapPhase phase = MapPhase::kUnassigned;
  Seconds assigned_at = -1.0;
  Seconds compute_start = -1.0;
  Seconds compute_duration = 0.0;
  /// True when the attempt drew the straggler slowdown.
  bool straggler = false;
  FlowId fetch_flow = FlowId::invalid();
  sim::EventHandle pending_event;  ///< startup or compute completion
};

/// A map task: its primary attempt (the base, which also carries the
/// task's phase once done or backing off) and at most one backup.
struct MapTaskState : MapAttempt {
  Locality locality = Locality::kRemote;
  Seconds finished_at = -1.0;
  /// Realized transmission cost of the placement (B_j * distance), for
  /// metrics.
  double placement_cost = 0.0;
  /// Attempts started so far (>= 2 after a failure re-run or speculation).
  std::size_t attempts = 0;
  /// Input bytes fetched over the network, summed over every attempt.
  Bytes network_bytes = 0.0;
  /// Attempts killed by the transfer stall watchdog (cumulative across
  /// retries; drives the backoff exponent).
  std::size_t stall_retries = 0;
  /// Bumped whenever the primary attempt ends; in-flight callbacks of
  /// both attempts compare it.
  std::uint64_t epoch = 0;
  /// The speculative copy; running unless its phase is kUnassigned.
  MapAttempt backup;

  [[nodiscard]] bool has_backup() const {
    return backup.phase != MapPhase::kUnassigned;
  }
  /// The backup when `speculative`, else the primary.
  [[nodiscard]] MapAttempt& attempt(bool speculative) {
    return speculative ? backup : *this;
  }
};

struct ReduceTaskState {
  ReducePhase phase = ReducePhase::kUnassigned;
  NodeId node;
  Locality locality = Locality::kRemote;
  Seconds assigned_at = -1.0;
  Seconds shuffle_done_at = -1.0;
  Seconds finished_at = -1.0;
  double placement_cost = 0.0;  ///< realized sum of bytes*distance
  /// Times a scheduler postponed this task (Coupling's <=3-heartbeat rule).
  std::size_t postpone_count = 0;
  /// Attempts started so far (> 1 after a node failure re-run).
  std::size_t attempts = 0;
  /// Shuffle bytes fetched over the network, summed over every attempt
  /// and re-fetch.
  Bytes network_bytes = 0.0;
  /// Attempts killed by the shuffle stall watchdog (cumulative).
  std::size_t stall_retries = 0;
  /// Bumped whenever the attempt is killed; in-flight fetch callbacks
  /// compare it and drop stale completions.
  std::uint64_t epoch = 0;
  sim::EventHandle pending_event;  ///< startup or compute completion

  // --- shuffle bookkeeping (engine-internal) ---
  /// Per source node: finished-but-unfetched map indices.
  std::vector<std::vector<std::size_t>> pending_by_node;
  std::size_t pending_maps = 0;   ///< total entries across pending_by_node
  std::size_t fetched_maps = 0;   ///< map outputs fully copied
  std::size_t active_fetchers = 0;
  Bytes bytes_fetched = 0.0;
  /// Which map outputs this reduce has already copied (guards against
  /// double-publishing when a map re-runs after a failure).
  std::vector<bool> fetched_map;
  /// Network fetches / local-copy events in flight (cancelled on kill).
  std::vector<FlowId> inflight_flows;
  std::vector<sim::EventHandle> inflight_copies;
};

class JobRun {
 public:
  /// `rng` draws the intermediate-data ground truth; `node_count` sizes the
  /// shuffle bookkeeping.
  JobRun(JobSpec spec, std::size_t node_count, Rng rng);

  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] JobId id() const { return spec_.id; }

  // --- task state access ---
  [[nodiscard]] const MapTaskState& map_state(std::size_t j) const {
    return maps_.at(j);
  }
  [[nodiscard]] MapTaskState& map_state(std::size_t j) { return maps_.at(j); }
  [[nodiscard]] const ReduceTaskState& reduce_state(std::size_t f) const {
    return reduces_.at(f);
  }
  [[nodiscard]] ReduceTaskState& reduce_state(std::size_t f) {
    return reduces_.at(f);
  }

  // --- intermediate data ---
  /// Ground truth I_jf (unknown to schedulers before map j completes).
  [[nodiscard]] Bytes final_partition(std::size_t j, std::size_t f) const {
    return intermediate_[j * spec_.reduce_count + f];
  }
  [[nodiscard]] Bytes total_map_output(std::size_t j) const {
    return map_output_total_.at(j);
  }

  /// Map progress p in [0,1] at time `now` (0 before compute starts).
  [[nodiscard]] double map_progress(std::size_t j, Seconds now) const;

  /// Heartbeat-visible d_read^j: input bytes map j has read by `now`.
  [[nodiscard]] Bytes bytes_read(std::size_t j, Seconds now) const {
    return spec_.map_tasks[j].input_size * map_progress(j, now);
  }

  /// Emission ramp p^alpha at map progress `progress` > 0: the fraction of
  /// its final output a map has produced (alpha = emit_nonlinearity).
  [[nodiscard]] double emit_ramp(double progress) const;

  /// Heartbeat-visible A_jf: current intermediate bytes of map j for
  /// reduce f at `now` (final_partition(j, f) * emit_ramp(progress), or 0
  /// before the map makes progress).
  [[nodiscard]] Bytes current_partition(std::size_t j, std::size_t f,
                                        Seconds now) const;

  // --- aggregate queries used by schedulers ---
  [[nodiscard]] std::size_t map_count() const { return maps_.size(); }
  [[nodiscard]] std::size_t reduce_count() const { return reduces_.size(); }
  [[nodiscard]] std::size_t maps_unassigned() const {
    return maps_unassigned_;
  }
  [[nodiscard]] std::size_t maps_finished() const { return maps_finished_; }
  [[nodiscard]] std::size_t maps_running() const {
    return map_count() - maps_unassigned_ - maps_finished_;
  }
  [[nodiscard]] std::size_t reduces_unassigned() const {
    return reduces_unassigned_;
  }
  [[nodiscard]] std::size_t reduces_finished() const {
    return reduces_finished_;
  }
  [[nodiscard]] std::size_t reduces_running() const {
    return reduce_count() - reduces_unassigned_ - reduces_finished_;
  }
  [[nodiscard]] bool complete() const {
    return maps_finished_ == map_count() && reduces_finished_ == reduce_count();
  }

  /// Fraction of map tasks completed (the slowstart / Coupling gate).
  [[nodiscard]] double map_finished_fraction() const {
    return map_count() == 0
               ? 1.0
               : static_cast<double>(maps_finished_) /
                     static_cast<double>(map_count());
  }

  [[nodiscard]] std::vector<std::size_t> unassigned_maps() const;
  [[nodiscard]] std::vector<std::size_t> unassigned_reduces() const;

  /// Does this job already run (or finish) a reduce task on `node`?
  /// (Algorithm 2, Line 1 forbids co-locating reduces of one job.)
  [[nodiscard]] bool has_reduce_on(NodeId node) const;

  // --- placement index (built by the engine at submit) ---
  /// Build per-node / per-rack lists of map tasks with a local replica, so
  /// schedulers find locality candidates without scanning every task, and
  /// each map's replica coordinates. `replica_nodes(j)` must return the
  /// replica holders of map j's block (distinct hosts of `topo`).
  void build_placement_index(
      const std::function<const std::vector<NodeId>&(std::size_t)>&
          replica_nodes,
      const net::Topology& topo);

  /// The distinct pod, rack and host coordinates of map j's replicas
  /// (Topology::append_set_coords): O(replication) per map, enough for
  /// its nearest-replica hop count from any node (net::nearest_hops) and
  /// over the free map nodes (Cluster::free_map_hops).
  [[nodiscard]] std::span<const std::uint32_t> replica_coords(
      std::size_t j) const {
    return {replica_coords_.data() + replica_coords_begin_[j],
            replica_coords_begin_[j + 1] - replica_coords_begin_[j]};
  }

  /// First unassigned map with a replica on `node` (amortised O(1)), or
  /// map_count() when none.
  [[nodiscard]] std::size_t next_local_map(NodeId node);
  /// First unassigned map with a replica in `rack`, or map_count().
  [[nodiscard]] std::size_t next_rack_map(RackId rack);
  /// First unassigned map, or map_count().
  [[nodiscard]] std::size_t next_any_map();
  /// The locality ladder: the first unassigned map local to `node` (rank
  /// 0), else local to its `rack` (rank 1), else any (rank 2). `task` is
  /// map_count() when no map is unassigned.
  [[nodiscard]] MapPick next_map_for(NodeId node, RackId rack);

  // --- lifecycle bookkeeping (engine use) ---
  void note_map_assigned() { --maps_unassigned_; }
  void note_map_finished() {
    ++maps_finished_;
  }
  void note_reduce_assigned() { --reduces_unassigned_; }
  void note_reduce_finished() { ++reduces_finished_; }

  // --- failure bookkeeping (engine use) ---
  /// A running (not finished) map attempt died with no surviving backup:
  /// the task returns to the unassigned pool.
  void note_map_attempt_lost() {
    ++maps_unassigned_;
    rewind_placement_cursors();
  }
  /// A *completed* map's output was lost before every consumer copied it:
  /// the task must re-run.
  void note_map_output_lost() {
    MRS_REQUIRE(maps_finished_ > 0);
    --maps_finished_;
    ++maps_unassigned_;
    rewind_placement_cursors();
  }
  /// A running reduce died: back to the unassigned pool.
  void note_reduce_attempt_lost() { ++reduces_unassigned_; }

  /// Record a completed map attempt's duration (drives speculation).
  void record_map_duration(Seconds d) { map_durations_.add(d); }
  [[nodiscard]] const RunningStats& map_duration_stats() const {
    return map_durations_;
  }

  /// Reset the placement-index cursors (tasks can become unassigned again
  /// after a failure, behind the cursors' forward-only positions).
  void rewind_placement_cursors();

  Seconds submit_time = 0.0;
  Seconds finish_time = -1.0;
  Seconds first_task_start = -1.0;
  /// When the admission controller let the job in (== submit_time with no
  /// controller); the queueing-delay feedback measures from here.
  Seconds admitted_at = -1.0;
  bool aborted = false;   ///< force-terminated by the attempt-cap check
  bool rejected = false;  ///< never admitted; holds no tasks or records

 private:
  /// Advance a cursor past assigned tasks; returns the front unassigned
  /// task in `list` or map_count() when exhausted.
  [[nodiscard]] std::size_t pop_front_unassigned(
      const std::vector<std::size_t>& list, std::size_t& cursor) const;

  JobSpec spec_;
  std::size_t node_count_ = 0;
  std::vector<MapTaskState> maps_;
  std::vector<ReduceTaskState> reduces_;
  // Placement index: tasks with a replica on node / in rack, plus cursors.
  std::vector<std::vector<std::size_t>> local_tasks_by_node_;
  std::vector<std::size_t> local_cursor_;
  std::vector<std::vector<std::size_t>> local_tasks_by_rack_;
  std::vector<std::size_t> rack_cursor_;
  std::size_t any_cursor_ = 0;
  // Map j's replica coordinates are replica_coords_[replica_coords_begin_
  // [j], replica_coords_begin_[j + 1]).
  std::vector<std::uint32_t> replica_coords_;
  std::vector<std::size_t> replica_coords_begin_;
  std::vector<Bytes> intermediate_;      ///< I matrix, row-major [map][reduce]
  std::vector<Bytes> map_output_total_;  ///< row sums of I
  std::size_t maps_unassigned_ = 0;
  std::size_t maps_finished_ = 0;
  std::size_t reduces_unassigned_ = 0;
  std::size_t reduces_finished_ = 0;
  RunningStats map_durations_;
};

}  // namespace mrs::mapreduce
