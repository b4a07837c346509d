// The JobTracker engine: drives job/task lifecycles on the discrete-event
// simulation and exposes the state and actions task schedulers need.
//
// Execution model per task:
//   map    = startup -> [remote input fetch (network flow)] -> compute
//   reduce = startup -> shuffle (parallel fetchers, one flow per source
//            node batch) -> sort+reduce compute
// All placement decisions are delegated to the installed TaskScheduler at
// heartbeat times; the engine enforces only slot capacity and records
// metrics.
#pragma once

#include <memory>
#include <vector>

#include "mrs/cluster/cluster.hpp"
#include "mrs/cluster/heartbeat.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/control/admission.hpp"
#include "mrs/control/blacklist.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/event.hpp"
#include "mrs/mapreduce/job_run.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "mrs/mapreduce/records.hpp"
#include "mrs/mapreduce/scheduler.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/telemetry/registry.hpp"

namespace mrs::mapreduce {

/// Stragglers, speculative execution and TaskTracker failures — the
/// fault-tolerance side of MapReduce (the task straggling the paper's
/// abstract targets; Hadoop semantics per Dean & Ghemawat and Mantri [15]).
struct FaultModelConfig {
  /// Chance a map attempt runs `straggler_slowdown` times slower
  /// (overloaded disk, bad NIC, background daemon...).
  double straggler_probability = 0.0;
  double straggler_slowdown = 4.0;
  /// Launch backup copies of lagging map attempts; first finisher wins.
  bool speculative_execution = false;
  /// An attempt is lagging when it has been running longer than
  /// slack x the mean completed-map duration of its job.
  double speculation_slack = 2.0;
  /// At most this fraction of a job's maps may have active backups
  /// (Hadoop's speculativecap) — prevents the backup traffic from
  /// congesting the network into further "stragglers".
  double speculation_cap = 0.1;
};

struct EngineConfig {
  /// Fraction of a job's maps that must finish before its reduces may
  /// launch (Hadoop's slowstart; applies to every scheduler).
  double reduce_slowstart = 0.05;
  FaultModelConfig fault;
  /// Abort a job when any of its tasks loses this many attempts to node
  /// failures (Hadoop's mapred.map.max.attempts); 0 = never abort.
  std::size_t max_task_attempts = 0;
  /// Kill and retry a map fetch / reduce shuffle whose transfers have been
  /// stalled (rate 0, e.g. a cut link) for this long. 0 disables the
  /// watchdog entirely: no events armed, byte-identical to earlier builds.
  Seconds stall_timeout = 0.0;
  /// Retry backoff after a stall kill: attempt n waits
  /// min(base * 2^(n-1), cap) before re-entering the unassigned pool, so a
  /// still-broken path is not immediately re-offered the same flow.
  Seconds stall_backoff_base = 5.0;
  Seconds stall_backoff_cap = 60.0;
  /// Repeatedly failing nodes sit out a probation after recovery.
  control::BlacklistConfig blacklist;
};

class Engine {
 public:
  /// `rng` drives the fault model (straggler draws); deterministic per
  /// seed like every other component.
  Engine(sim::Simulation* simulation, cluster::Cluster* cluster,
         const dfs::BlockStore* blocks, sim::NetworkService* network,
         const net::DistanceProvider* distance, EngineConfig config,
         Rng rng = Rng(0));

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Install the task scheduler (must outlive the engine run).
  void set_scheduler(TaskScheduler* scheduler);

  /// Deliver every lifecycle event (event.hpp) to `observer`, in emission
  /// order; install before start(). Observers must outlive the run.
  void add_observer(EngineObserver* observer);

  /// Optional telemetry registry (must outlive the run): registers the
  /// heartbeat counter and timer and installs a LifecycleCounters observer
  /// (observers.hpp). Null uninstalls them.
  void set_telemetry(telemetry::Registry* registry);

  /// Optional admission controller (may be null; must outlive the run).
  /// When installed, every arrival is routed through it at submit time:
  /// admitted jobs activate, deferred ones retry after the returned
  /// backoff, rejected ones never enter the system.
  void set_admission(control::AdmissionController* controller) {
    admission_ = controller;
  }

  /// Queue a job; it activates at spec.submit_time. `rng` draws the job's
  /// intermediate-data ground truth. Normally jobs are submitted before
  /// start(); while a stream is open (open_stream) jobs may also arrive
  /// after start(), with submit_time >= now.
  JobRun& submit(JobSpec spec, Rng rng);

  /// Arm heartbeats and job activations; then drive `simulation->run()`.
  void start();

  /// Declare that more jobs will be submitted after start() (streaming
  /// replay). While the stream is open all_jobs_complete() stays false,
  /// so a momentary backlog drain between arrivals never stops the
  /// heartbeat service mid-run. Call before start().
  void open_stream();

  /// End of the arrival stream: no further submits. If everything already
  /// finished, stops heartbeats exactly as the last completion would.
  void close_stream();

  /// True once every submitted job has been resolved: completed, rejected
  /// at admission, or aborted — and no stream can submit more.
  [[nodiscard]] bool all_jobs_complete() const {
    return !stream_open_ &&
           jobs_completed_ + jobs_rejected_ + jobs_aborted_ == jobs_.size();
  }

  [[nodiscard]] std::size_t jobs_submitted() const { return jobs_.size(); }
  [[nodiscard]] std::size_t jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] std::size_t jobs_rejected() const { return jobs_rejected_; }
  [[nodiscard]] std::size_t jobs_aborted() const { return jobs_aborted_; }
  /// Jobs activated (reached their submit time) so far.
  [[nodiscard]] std::size_t jobs_activated() const { return jobs_activated_; }

  [[nodiscard]] const control::NodeBlacklist& blacklist() const {
    return blacklist_;
  }

  // --- scheduler-facing queries ---
  [[nodiscard]] Seconds now() const { return simulation_->now(); }
  [[nodiscard]] const cluster::Cluster& cluster() const { return *cluster_; }
  [[nodiscard]] const dfs::BlockStore& blocks() const { return *blocks_; }
  [[nodiscard]] const net::Topology& topology() const {
    return cluster_->topology();
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Distance h_ab from the installed provider, at current sim time.
  [[nodiscard]] double distance(NodeId a, NodeId b) const {
    return distance_->distance(a, b, now());
  }
  [[nodiscard]] const net::DistanceProvider& distance_provider() const {
    return *distance_;
  }

  /// Active (submitted, incomplete) jobs in submission order.
  [[nodiscard]] const std::vector<JobRun*>& active_jobs() const {
    return active_jobs_;
  }

  /// Remaining assignment budget for the heartbeat being served. Hadoop 1.x
  /// answers each heartbeat with at most one map and one reduce assignment
  /// (mapred.fairscheduler.assignmultiple=false), so each budget starts at
  /// one: *skipping* an offer (delay scheduling, a failed probability
  /// draw) costs real time, the slot stays idle until the next heartbeat.
  /// Schedulers must stop offering once a budget reaches zero; assign_map
  /// / assign_reduce enforce it.
  [[nodiscard]] std::size_t map_budget_left() const {
    return heartbeat_map_budget_;
  }
  [[nodiscard]] std::size_t reduce_budget_left() const {
    return heartbeat_reduce_budget_;
  }

  /// Has `job` passed the slowstart gate for launching reduce tasks?
  [[nodiscard]] bool reduce_gate_open(const JobRun& job) const {
    return job.map_finished_fraction() >= config_.reduce_slowstart ||
           job.map_count() == 0;
  }

  /// Replica holders of map `j`'s input block (distinct hosts).
  [[nodiscard]] const std::vector<NodeId>& map_replicas(const JobRun& job,
                                                        std::size_t j) const {
    return blocks_->replicas(job.spec().map_tasks[j].block);
  }

  /// Hops from `node` to the nearest replica of map `j`'s block, from
  /// host coordinates (Topology::nearest_hops).
  [[nodiscard]] std::size_t map_hops(const JobRun& job, std::size_t j,
                                     NodeId node) const {
    return topology().nearest_hops(topology().coords_of(node),
                                   job.replica_coords(j));
  }

  /// Transmission cost of placing map `j` of `job` on `node` (Eq. 1):
  /// B_j * map_hops(job, j, node) (replica distances are topological).
  [[nodiscard]] double map_cost(const JobRun& job, std::size_t j,
                                NodeId node) const;

  /// Locality class `node` would have for map `j` of `job`, from the same
  /// nearest-replica hop count: 0 node-local, 2 rack-local, else remote.
  [[nodiscard]] Locality map_locality(const JobRun& job, std::size_t j,
                                      NodeId node) const;

  /// Locality class a reduce of `job` would have on `node`, per the
  /// paper's Sec. III-C definition ("a task assigned to a machine with
  /// data for that task"): node-local when a completed map of the job ran
  /// there, rack-local when one ran in its rack. Blind early launches
  /// therefore score worse than data-aware ones.
  [[nodiscard]] Locality reduce_locality(const JobRun& job,
                                         NodeId node) const;

  // --- scheduler-facing actions ---
  /// Place map task `j` of `job` on `node`; requires a free map slot and an
  /// unassigned task.
  void assign_map(JobRun& job, std::size_t j, NodeId node);

  /// Place reduce task `f` of `job` on `node`; requires a free reduce slot
  /// and an unassigned task.
  void assign_reduce(JobRun& job, std::size_t f, NodeId node);

  // --- fault injection ---
  /// A TaskTracker (JVM/daemon) on `node` dies: its running task attempts
  /// are killed and rescheduled, and completed map outputs stored there
  /// that some reduce still needs are re-executed (Hadoop semantics).
  /// Already-started network transfers from the node drain normally (the
  /// bytes are buffered in the OS / switch by then).
  void fail_node(NodeId node);

  /// The TaskTracker restarts: the node's slots become available again
  /// (its previous map outputs stay lost).
  void recover_node(NodeId node);

  /// Serve one heartbeat from `node` immediately, exactly as the periodic
  /// HeartbeatService would (budgets reset, speculation pass, scheduler
  /// callback). For tests and micro-benchmarks that need to drive the
  /// scheduler outside the simulation clock.
  void heartbeat_now(NodeId node) { on_heartbeat(node); }

  // --- results ---
  [[nodiscard]] const std::vector<TaskRecord>& task_records() const {
    return task_records_;
  }
  [[nodiscard]] const std::vector<JobRecord>& job_records() const {
    return job_records_;
  }
  /// Records for jobs still incomplete (truncated run): same fields as a
  /// completed JobRecord but finish_time = -1.0, the "never finished"
  /// sentinel (finish_time < submit_time identifies them downstream).
  [[nodiscard]] std::vector<JobRecord> unfinished_job_records() const;
  [[nodiscard]] UtilizationSummary utilization() const;

 private:
  void on_heartbeat(NodeId node);
  /// Route an arrival through the admission controller (or straight to
  /// activation when none is installed). `attempt` counts prior deferrals.
  void try_admit(JobRun& job, std::size_t attempt);
  void reject_job(JobRun& job);
  /// Force-terminate a job mid-run: kill its running attempts, emit an
  /// aborted JobRecord, drop it from the active set.
  void abort_job(JobRun& job);
  /// Record, deactivate and announce a finished or aborted job.
  void retire_job(JobRun& job, EventKind outcome);
  void activate_job(JobRun& job);
  /// The job's first task launch: feeds its queueing delay to admission.
  void note_task_start(JobRun& job);
  /// Start map `j`'s primary attempt (or its backup) on `node`: spend
  /// the map budget, occupy the slot, schedule the startup.
  void launch_map_attempt(JobRun& job, std::size_t j, NodeId node,
                          bool backup);
  /// Post-startup step of a map attempt: draw its compute time, then a
  /// local read computes, a remote one streams application-limited.
  void map_attempt_ready(JobRun& job, std::size_t j, bool backup);
  void finish_map(JobRun& job, std::size_t j, bool backup);
  /// Cancel the attempt's pending event and fetch flow, free its slot and
  /// leave it unassigned.
  void end_map_attempt(MapAttempt& attempt);
  /// Kill the backup, or the primary together with any backup.
  void kill_map_attempt(JobRun& job, std::size_t j, bool backup);
  /// `requeue` counts the task back into the unassigned pool (node
  /// failures); the stall watchdog passes false and parks it in kBackoff.
  void kill_reduce_attempt(JobRun& job, std::size_t f, bool requeue = true);
  /// Has a task with `attempts` launched attempts used up the job's cap
  /// (max_task_attempts)?
  [[nodiscard]] bool attempt_cap_reached(std::size_t attempts) const {
    return config_.max_task_attempts != 0 &&
           attempts >= config_.max_task_attempts;
  }
  // --- transfer stall watchdog (config_.stall_timeout > 0 only) ---
  /// kOver: the watched transfer ended; kMoving: it still progresses (or a
  /// backup races it); kStalled: kill and retry.
  enum class StallVerdict { kOver, kMoving, kStalled };
  void arm_stall_watchdog(JobRun& job, bool is_map, std::size_t task);
  [[nodiscard]] StallVerdict stall_verdict(const JobRun& job, bool is_map,
                                           std::size_t task) const;
  void check_stall(JobRun& job, bool is_map, std::size_t task);
  /// The retry backoff after a stall kill at `epoch` is over: the task
  /// re-enters the unassigned pool.
  void end_stall_backoff(JobRun& job, bool is_map, std::size_t task,
                         std::uint64_t epoch);
  /// Backoff before retry `retries` (capped exponential).
  [[nodiscard]] Seconds stall_backoff(std::size_t retries) const;
  /// Feed a failure on `node` into the blacklist, announcing a new
  /// listing; true while the node is listed.
  bool note_node_failure(NodeId node);
  /// Put a recovered-or-alive blacklisted node on probation: unschedulable
  /// for the configured window, restored unless re-listed meanwhile.
  void begin_probation(NodeId node);
  /// Launch backup copies for lagging maps on `node` (speculation).
  void maybe_speculate(NodeId node);
  void start_reduce_shuffle(JobRun& job, std::size_t f);
  void pump_reduce_fetchers(JobRun& job, std::size_t f);
  void finish_reduce_shuffle(JobRun& job, std::size_t f);
  void finish_reduce(JobRun& job, std::size_t f);
  void check_job_complete(JobRun& job);
  void touch_utilization();
  void record_task(const JobRun& job, bool is_map, std::size_t index);
  [[nodiscard]] JobRecord job_record(const JobRun& job) const;
  // --- lifecycle events: build one only `if (observed())` ---
  [[nodiscard]] bool observed() const { return !observers_.empty(); }
  void emit(const EngineEvent& event) const {
    for (EngineObserver* observer : observers_) observer->on_event(event);
  }
  [[nodiscard]] EngineEvent job_event(EventKind kind, const JobRun& job) const;
  /// A task's event, filled from its attempt's state (the map's backup
  /// attempt when `backup`).
  [[nodiscard]] EngineEvent task_event(EventKind kind, const JobRun& job,
                                       bool is_map, std::size_t task,
                                       bool backup = false) const;

  /// Possibly-null cached metric pointers into the attached registry
  /// (telemetry::inc / ScopedTimer tolerate null).
  struct Metrics {
    telemetry::Counter* heartbeats = nullptr;
    telemetry::TimerStat* heartbeat_wall = nullptr;
  };

  sim::Simulation* simulation_;
  cluster::Cluster* cluster_;
  const dfs::BlockStore* blocks_;
  sim::NetworkService* network_;
  const net::DistanceProvider* distance_;
  EngineConfig config_;
  Rng rng_;
  TaskScheduler* scheduler_ = nullptr;
  std::vector<EngineObserver*> observers_;
  std::unique_ptr<LifecycleCounters> counters_;  ///< with set_telemetry
  control::AdmissionController* admission_ = nullptr;
  control::NodeBlacklist blacklist_;
  Metrics metrics_;
  cluster::HeartbeatService heartbeats_;

  std::vector<std::unique_ptr<JobRun>> jobs_;
  std::vector<JobRun*> active_jobs_;
  std::size_t jobs_completed_ = 0;
  std::size_t jobs_activated_ = 0;
  std::size_t jobs_rejected_ = 0;
  std::size_t jobs_aborted_ = 0;
  bool started_ = false;
  bool stream_open_ = false;

  std::vector<TaskRecord> task_records_;
  std::vector<JobRecord> job_records_;

  // Per-heartbeat assignment budgets (reset on every heartbeat).
  std::size_t heartbeat_map_budget_ = 0;
  std::size_t heartbeat_reduce_budget_ = 0;

  // Utilization integral.
  Seconds util_last_change_ = 0.0;
  double map_busy_integral_ = 0.0;
  double reduce_busy_integral_ = 0.0;
  Seconds first_submit_ = -1.0;
  Seconds last_finish_ = 0.0;
};

}  // namespace mrs::mapreduce
