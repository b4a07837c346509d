#include "mrs/mapreduce/engine.hpp"

#include <algorithm>

#include "mrs/common/log.hpp"

namespace mrs::mapreduce {

namespace {

constexpr Seconds kHeartbeatInterval = 3.0;
/// Assignment budget per heartbeat, for maps and reduces alike (Hadoop
/// 1.x, mapred.fairscheduler.assignmultiple=false).
constexpr std::size_t kAssignmentsPerHeartbeat = 1;
/// Max concurrent shuffle fetch flows per reduce task (Hadoop's
/// mapred.reduce.parallel.copies).
constexpr std::size_t kShuffleParallelFetchers = 4;
/// Only speculate once this fraction of a job's maps has finished (there
/// must be a duration baseline to compare against).
constexpr double kSpeculationMinProgress = 0.05;

/// Has the attempt started and not yet ended?
bool is_running(MapPhase phase) {
  return phase == MapPhase::kStartup || phase == MapPhase::kFetching ||
         phase == MapPhase::kComputing;
}
bool is_running(ReducePhase phase) {
  return phase == ReducePhase::kStartup || phase == ReducePhase::kShuffling ||
         phase == ReducePhase::kComputing;
}

std::uint64_t task_epoch(const JobRun& job, bool is_map, std::size_t task) {
  return is_map ? job.map_state(task).epoch : job.reduce_state(task).epoch;
}

}  // namespace

Engine::Engine(sim::Simulation* simulation, cluster::Cluster* cluster,
               const dfs::BlockStore* blocks, sim::NetworkService* network,
               const net::DistanceProvider* distance, EngineConfig config,
               Rng rng)
    : simulation_(simulation),
      cluster_(cluster),
      blocks_(blocks),
      network_(network),
      distance_(distance),
      config_(config),
      rng_(std::move(rng)),
      blacklist_(cluster->node_count(), config.blacklist),
      heartbeats_(simulation, cluster->node_count(), kHeartbeatInterval) {
  MRS_REQUIRE(simulation_ != nullptr && cluster_ != nullptr &&
              blocks_ != nullptr && network_ != nullptr &&
              distance_ != nullptr);
  MRS_REQUIRE(config_.reduce_slowstart >= 0.0 &&
              config_.reduce_slowstart <= 1.0);
  MRS_REQUIRE(config_.fault.straggler_probability >= 0.0 &&
              config_.fault.straggler_probability <= 1.0);
  MRS_REQUIRE(config_.fault.straggler_slowdown >= 1.0);
  MRS_REQUIRE(config_.fault.speculation_slack > 1.0);
}

void Engine::set_scheduler(TaskScheduler* scheduler) {
  MRS_REQUIRE(scheduler != nullptr);
  scheduler_ = scheduler;
}

void Engine::add_observer(EngineObserver* observer) {
  MRS_REQUIRE(!started_ && observer != nullptr);
  observers_.push_back(observer);
}

void Engine::set_telemetry(telemetry::Registry* registry) {
  MRS_REQUIRE(!started_);
  std::erase(observers_, counters_.get());
  counters_.reset();
  metrics_ = Metrics{};
  if (registry == nullptr) return;
  counters_ = std::make_unique<LifecycleCounters>(*registry, *cluster_);
  observers_.push_back(counters_.get());
  metrics_.heartbeats = &registry->counter("engine.heartbeats");
  metrics_.heartbeat_wall = &registry->timer("engine.heartbeat_wall");
}

EngineEvent Engine::job_event(EventKind kind, const JobRun& job) const {
  EngineEvent e;
  e.kind = kind;
  e.time = now();
  e.job = job.id();
  e.job_name = job.spec().name;
  e.submit = job.submit_time;
  e.tenant = job.spec().tenant;
  e.maps = job.map_count();
  e.reduces = job.reduce_count();
  return e;
}

EngineEvent Engine::task_event(EventKind kind, const JobRun& job,
                               bool is_map, std::size_t task,
                               bool backup) const {
  EngineEvent e = job_event(kind, job);
  e.is_map = is_map;
  e.backup = backup;
  e.task = task;
  const auto fill = [&e](const auto& state) {
    e.node = state.node;
    e.locality = state.locality;
    e.attempts = state.attempts;
    e.stall_retries = state.stall_retries;
  };
  is_map ? fill(job.map_state(task)) : fill(job.reduce_state(task));
  if (backup) {
    e.node = job.map_state(task).backup.node;
    e.locality = map_locality(job, task, e.node);
  }
  return e;
}

JobRun& Engine::submit(JobSpec spec, Rng rng) {
  MRS_REQUIRE(!started_ || stream_open_);
  const bool live = started_;  // arrived mid-run via an open stream
  if (live) MRS_REQUIRE(spec.submit_time >= simulation_->now());
  // A non-positive weight would make the kWeightedFair deficit inf/NaN and
  // the comparator an invalid strict weak ordering (UB in stable_sort).
  MRS_REQUIRE(spec.weight > 0.0);
  spec.id = JobId(jobs_.size());
  for (const auto& m : spec.map_tasks) {
    MRS_REQUIRE(m.block.value() < blocks_->block_count());
  }
  jobs_.push_back(std::make_unique<JobRun>(std::move(spec),
                                           cluster_->node_count(),
                                           std::move(rng)));
  JobRun& job = *jobs_.back();

  // Build the per-node/per-rack locality index (schedulers find local
  // candidates in O(1)) and the replica coordinates behind map_hops().
  job.build_placement_index(
      [this, &job](std::size_t j) -> const std::vector<NodeId>& {
        return map_replicas(job, j);
      },
      topology());
  if (first_submit_ < 0.0 || job.submit_time < first_submit_) {
    first_submit_ = job.submit_time;
  }
  if (live) {
    // start() already ran, so schedule this job's own activation (the
    // batch path schedules all of them inside start()).
    JobRun* j = &job;
    simulation_->schedule_at(j->submit_time,
                             [this, j] { try_admit(*j, /*attempt=*/0); });
  }
  return job;
}

void Engine::open_stream() {
  MRS_REQUIRE(!started_);
  stream_open_ = true;
}

void Engine::close_stream() {
  if (!stream_open_) return;
  stream_open_ = false;
  if (started_ && all_jobs_complete()) heartbeats_.stop();
}

void Engine::start() {
  MRS_REQUIRE(!started_);
  MRS_REQUIRE(scheduler_ != nullptr);
  MRS_REQUIRE(!jobs_.empty() || stream_open_);
  started_ = true;
  util_last_change_ = simulation_->now();
  for (const auto& job : jobs_) {
    JobRun* j = job.get();
    simulation_->schedule_at(j->submit_time,
                             [this, j] { try_admit(*j, /*attempt=*/0); });
  }
  heartbeats_.start([this](NodeId node) { on_heartbeat(node); });
}

void Engine::try_admit(JobRun& job, std::size_t attempt) {
  if (admission_ == nullptr) {
    activate_job(job);
    return;
  }
  control::AdmissionObservables obs;
  obs.now = now();
  obs.tenant = job.spec().tenant;
  obs.jobs_in_system = active_jobs_.size();
  for (const JobRun* active : active_jobs_) {
    obs.tasks_queued +=
        active->maps_unassigned() + active->reduces_unassigned();
    if (active->spec().tenant == obs.tenant) ++obs.tenant_jobs_in_system;
  }
  obs.map_slot_utilization =
      cluster_->total_map_slots() > 0
          ? static_cast<double>(cluster_->busy_map_slots()) /
                static_cast<double>(cluster_->total_map_slots())
          : 0.0;
  obs.reduce_slot_utilization =
      cluster_->total_reduce_slots() > 0
          ? static_cast<double>(cluster_->busy_reduce_slots()) /
                static_cast<double>(cluster_->total_reduce_slots())
          : 0.0;
  const control::AdmissionDecision decision =
      admission_->on_arrival(job.id(), job.submit_time, attempt, obs);
  switch (decision.action) {
    case control::AdmissionAction::kAdmit:
      activate_job(job);
      break;
    case control::AdmissionAction::kDefer: {
      if (observed()) {
        EngineEvent e = job_event(EventKind::kJobDeferred, job);
        e.attempts = attempt;
        e.duration = decision.retry_in;
        emit(e);
      }
      JobRun* j = &job;
      simulation_->schedule_in(decision.retry_in, [this, j, attempt] {
        try_admit(*j, attempt + 1);
      });
      break;
    }
    case control::AdmissionAction::kReject:
      reject_job(job);
      break;
  }
}

void Engine::reject_job(JobRun& job) {
  job.rejected = true;
  ++jobs_rejected_;
  log_debug("t=%.1f reject job %s", now(), job.spec().name.c_str());
  if (observed()) emit(job_event(EventKind::kJobRejected, job));
  if (all_jobs_complete()) heartbeats_.stop();
}

void Engine::abort_job(JobRun& job) {
  MRS_REQUIRE(!job.aborted && !job.rejected && job.finish_time < 0.0);
  // Kill every running attempt so the job releases its slots and no stale
  // callbacks fire after the record is emitted.
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    if (is_running(job.map_state(j).phase)) {
      kill_map_attempt(job, j, /*backup=*/false);
    }
  }
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    if (is_running(job.reduce_state(f).phase)) kill_reduce_attempt(job, f);
  }

  retire_job(job, EventKind::kJobAborted);
  log_info("t=%.1f job %s aborted (task attempt cap)", now(),
           job.spec().name.c_str());
}

void Engine::retire_job(JobRun& job, EventKind outcome) {
  job.aborted = outcome == EventKind::kJobAborted;
  job.finish_time = now();
  last_finish_ = std::max(last_finish_, job.finish_time);
  job_records_.push_back(job_record(job));
  active_jobs_.erase(
      std::remove(active_jobs_.begin(), active_jobs_.end(), &job),
      active_jobs_.end());
  if (scheduler_ != nullptr) scheduler_->on_job_finished(*this, job.id());
  ++(job.aborted ? jobs_aborted_ : jobs_completed_);
  if (observed()) emit(job_event(outcome, job));
  if (all_jobs_complete()) heartbeats_.stop();
}

void Engine::activate_job(JobRun& job) {
  active_jobs_.push_back(&job);
  ++jobs_activated_;
  job.admitted_at = now();
  log_debug("t=%.1f activate job %s", now(), job.spec().name.c_str());
  if (observed()) emit(job_event(EventKind::kJobActivated, job));
}

void Engine::on_heartbeat(NodeId node) {
  if (active_jobs_.empty()) return;
  if (!cluster_->node_alive(node)) return;  // dead trackers don't report
  telemetry::inc(metrics_.heartbeats);
  telemetry::ScopedTimer timer(metrics_.heartbeat_wall);
  heartbeat_map_budget_ = kAssignmentsPerHeartbeat;
  heartbeat_reduce_budget_ = kAssignmentsPerHeartbeat;
  if (config_.fault.speculative_execution) maybe_speculate(node);
  scheduler_->on_heartbeat(*this, node);
}

double Engine::map_cost(const JobRun& job, std::size_t j, NodeId node) const {
  return job.spec().map_tasks.at(j).input_size *
         static_cast<double>(map_hops(job, j, node));
}

Locality Engine::map_locality(const JobRun& job, std::size_t j,
                              NodeId node) const {
  switch (map_hops(job, j, node)) {
    case 0:
      return Locality::kNodeLocal;
    case 2:
      return Locality::kRackLocal;
    default:
      return Locality::kRemote;
  }
}

Locality Engine::reduce_locality(const JobRun& job, NodeId node) const {
  Locality locality = Locality::kRemote;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const MapTaskState& m = job.map_state(j);
    if (m.phase != MapPhase::kDone) continue;
    if (m.node == node) return Locality::kNodeLocal;
    if (topology().same_rack(m.node, node)) locality = Locality::kRackLocal;
  }
  return locality;
}

void Engine::note_task_start(JobRun& job) {
  if (job.first_task_start >= 0.0) return;
  job.first_task_start = now();
  if (admission_ != nullptr && job.admitted_at >= 0.0) {
    admission_->note_queueing_delay(now() - job.admitted_at);
  }
}

void Engine::touch_utilization() {
  const Seconds t = simulation_->now();
  const Seconds dt = t - util_last_change_;
  if (dt > 0.0) {
    map_busy_integral_ +=
        dt * static_cast<double>(cluster_->busy_map_slots());
    reduce_busy_integral_ +=
        dt * static_cast<double>(cluster_->busy_reduce_slots());
  }
  util_last_change_ = t;
}

UtilizationSummary Engine::utilization() const {
  UtilizationSummary u;
  u.map_slot_seconds_busy = map_busy_integral_;
  u.reduce_slot_seconds_busy = reduce_busy_integral_;
  u.span = std::max(0.0, last_finish_ - std::max(0.0, first_submit_));
  u.total_map_slots = cluster_->total_map_slots();
  u.total_reduce_slots = cluster_->total_reduce_slots();
  return u;
}

// ---------------------------------------------------------------------------
// Map task lifecycle
// ---------------------------------------------------------------------------

void Engine::assign_map(JobRun& job, std::size_t j, NodeId node) {
  MRS_REQUIRE(job.map_state(j).phase == MapPhase::kUnassigned);
  MRS_REQUIRE(cluster_->node(node).free_map_slots() > 0);
  MRS_REQUIRE(heartbeat_map_budget_ > 0);
  launch_map_attempt(job, j, node, /*backup=*/false);
}

void Engine::launch_map_attempt(JobRun& job, std::size_t j, NodeId node,
                                bool backup) {
  --heartbeat_map_budget_;
  touch_utilization();
  cluster_->occupy_map_slot(node);
  MapTaskState& s = job.map_state(j);
  MapAttempt& a = s.attempt(backup);
  a.node = node;
  a.assigned_at = now();
  a.phase = MapPhase::kStartup;
  a.fetch_flow = FlowId::invalid();
  ++s.attempts;
  if (!backup) {
    // The primary carries the task's placement; a backup that wins the
    // race hands its own over in finish_map.
    s.locality = map_locality(job, j, node);
    s.placement_cost = map_cost(job, j, node);
    job.note_map_assigned();
    note_task_start(job);
  }
  if (observed()) {
    emit(task_event(EventKind::kTaskAssigned, job, true, j, backup));
  }

  const auto epoch = s.epoch;
  a.pending_event = simulation_->schedule_in(
      job.spec().task_startup, [this, &job, j, backup, epoch] {
        if (job.map_state(j).epoch != epoch) return;  // attempt was killed
        map_attempt_ready(job, j, backup);
      });
}

void Engine::map_attempt_ready(JobRun& job, std::size_t j, bool backup) {
  MapTaskState& s = job.map_state(j);
  MapAttempt& a = s.attempt(backup);
  const MapTaskSpec& spec = job.spec().map_tasks[j];
  const bool remote = map_locality(job, j, a.node) != Locality::kNodeLocal;
  // Remote input is *streamed* from the best replica while the map
  // computes (Hadoop maps read their split as they process it): the flow
  // is application-limited to the map's compute rate, and the task
  // finishes when the last byte has been pulled — exactly the compute time
  // when the path keeps up, the transfer time when the network is the
  // bottleneck.
  NodeId src;
  if (remote) {
    double best = std::numeric_limits<double>::max();
    for (NodeId replica : blocks_->replicas(spec.block)) {
      // Fallback to the first replica even when every path is cut
      // (infinite condition-aware distance): the transfer still starts and
      // simply stalls at rate 0, which is the stall watchdog's cue to
      // retry later.
      if (!src.valid()) src = replica;
      const double d = distance(a.node, replica);
      if (d < best) {
        best = d;
        src = replica;
      }
    }
    MRS_ASSERT(src.valid() && src != a.node);
  }

  // The compute time on the attempt's node, straggler-adjusted.
  Seconds duration =
      spec.input_size /
      (job.spec().map_rate * cluster_->node(a.node).speed_factor);
  const bool straggler = config_.fault.straggler_probability > 0.0 &&
                         rng_.bernoulli(config_.fault.straggler_probability);
  if (straggler) duration *= config_.fault.straggler_slowdown;
  if (observed()) {
    EngineEvent e = task_event(EventKind::kTaskReady, job, true, j, backup);
    e.remote = remote;
    e.duration = duration;
    e.straggler = straggler;
    emit(e);
  }

  const auto epoch = s.epoch;
  auto finish = [this, &job, j, backup, epoch] {
    if (job.map_state(j).epoch != epoch) return;  // attempt was killed
    finish_map(job, j, backup);
  };
  if (remote) {
    s.network_bytes += spec.input_size;
    a.fetch_flow =
        network_->transfer(src, a.node, spec.input_size, std::move(finish),
                           /*rate_cap=*/spec.input_size / duration);
    a.phase = MapPhase::kFetching;
  } else {
    a.pending_event = simulation_->schedule_in(duration, std::move(finish));
    a.phase = MapPhase::kComputing;
  }
  a.compute_start = now();
  a.compute_duration = duration;
  a.straggler = straggler;
  // The watchdog watches the primary; a backup is itself the mitigation.
  if (remote && !backup) arm_stall_watchdog(job, /*is_map=*/true, j);
}

void Engine::end_map_attempt(MapAttempt& a) {
  touch_utilization();
  simulation_->cancel(a.pending_event);
  if (a.fetch_flow.valid()) network_->cancel(a.fetch_flow);
  cluster_->release_map_slot(a.node);
  a.phase = MapPhase::kUnassigned;
  a.compute_start = -1.0;
  a.compute_duration = 0.0;
  a.straggler = false;
  a.fetch_flow = FlowId::invalid();
}

void Engine::kill_map_attempt(JobRun& job, std::size_t j, bool backup) {
  MapTaskState& s = job.map_state(j);
  // Killing the primary leaves the task unassigned and takes a surviving
  // backup with it.
  if (!backup && s.has_backup()) kill_map_attempt(job, j, /*backup=*/true);
  MapAttempt& a = s.attempt(backup);
  MRS_REQUIRE(is_running(a.phase));
  end_map_attempt(a);
  // Killing only the backup leaves the epoch alone: the primary's
  // in-flight callbacks stay valid.
  if (!backup) ++s.epoch;
  if (observed()) {
    emit(task_event(EventKind::kTaskKilled, job, true, j, backup));
  }
}

void Engine::finish_map(JobRun& job, std::size_t j, bool backup) {
  MapTaskState& s = job.map_state(j);
  MRS_ASSERT(s.attempt(backup).phase == MapPhase::kComputing ||
             s.attempt(backup).phase == MapPhase::kFetching);

  if (s.has_backup()) {
    // A speculation race: the first finisher wins and the other attempt
    // is released. A winning backup's placement replaces the primary's,
    // so downstream consumers see the real data location.
    end_map_attempt(s.attempt(!backup));
    if (backup) {
      s.node = s.backup.node;
      s.locality = map_locality(job, j, s.node);
      s.placement_cost = map_cost(job, j, s.node);
      s.compute_start = s.backup.compute_start;
      s.compute_duration = s.backup.compute_duration;
      s.straggler = s.backup.straggler;
    }
    s.backup = MapAttempt{};
  }
  ++s.epoch;

  s.phase = MapPhase::kDone;
  s.finished_at = now();
  touch_utilization();
  cluster_->release_map_slot(s.node);
  job.note_map_finished();
  job.record_map_duration(s.finished_at - s.assigned_at);
  record_task(job, /*is_map=*/true, j);
  if (observed()) {
    // A winning backup was promoted: the primary's fields now describe it.
    EngineEvent e = task_event(EventKind::kTaskFinished, job, true, j);
    e.backup = backup;
    emit(e);
  }

  // Publish this map's output to every reduce task already shuffling (and
  // not already holding it from a pre-failure run).
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    ReduceTaskState& r = job.reduce_state(f);
    if (r.phase != ReducePhase::kShuffling) continue;
    if (r.fetched_map[j]) continue;
    r.pending_by_node[s.node.value()].push_back(j);
    ++r.pending_maps;
    pump_reduce_fetchers(job, f);
  }
  check_job_complete(job);
}

void Engine::maybe_speculate(NodeId node) {
  const auto& fault = config_.fault;
  if (fault.speculation_cap <= 0.0) return;  // backups disabled outright
  // At most one backup launch per heartbeat (it costs map budget like any
  // launch) — speculation is a repair mechanism, not a scheduler.
  if (heartbeat_map_budget_ == 0 ||
      cluster_->node(node).free_map_slots() == 0) {
    return;
  }
  // Find the most-lagging speculation-eligible map attempt.
  JobRun* best_job = nullptr;
  std::size_t best_task = 0;
  double best_lag = 0.0;
  for (JobRun* job : active_jobs_) {
    if (job->map_finished_fraction() < kSpeculationMinProgress) continue;
    const auto& durations = job->map_duration_stats();
    if (durations.count() == 0) continue;
    // Hadoop's speculativecap: bound concurrent backups per job so the
    // extra copies can't congest the cluster into more "stragglers".
    std::size_t active_backups = 0;
    for (std::size_t j = 0; j < job->map_count(); ++j) {
      if (job->map_state(j).has_backup()) ++active_backups;
    }
    const auto cap = static_cast<std::size_t>(
        fault.speculation_cap * static_cast<double>(job->map_count()));
    if (active_backups >= std::max<std::size_t>(cap, 1)) continue;

    const Seconds threshold = fault.speculation_slack * durations.mean();
    for (std::size_t j = 0; j < job->map_count(); ++j) {
      const MapTaskState& s = job->map_state(j);
      if (s.phase != MapPhase::kComputing &&
          s.phase != MapPhase::kFetching) {
        continue;
      }
      if (s.has_backup() || s.node == node) continue;
      const Seconds elapsed = now() - s.assigned_at;
      if (elapsed < threshold) continue;
      if (elapsed - threshold > best_lag || best_job == nullptr) {
        best_lag = elapsed - threshold;
        best_job = job;
        best_task = j;
      }
    }
  }
  if (best_job != nullptr) {
    launch_map_attempt(*best_job, best_task, node, /*backup=*/true);
  }
}

// ---------------------------------------------------------------------------
// Reduce task lifecycle
// ---------------------------------------------------------------------------

void Engine::assign_reduce(JobRun& job, std::size_t f, NodeId node) {
  ReduceTaskState& r = job.reduce_state(f);
  MRS_REQUIRE(r.phase == ReducePhase::kUnassigned);
  MRS_REQUIRE(cluster_->node(node).free_reduce_slots() > 0);
  MRS_REQUIRE(heartbeat_reduce_budget_ > 0);
  --heartbeat_reduce_budget_;

  touch_utilization();
  cluster_->occupy_reduce_slot(node);
  r.node = node;
  r.assigned_at = now();
  r.locality = reduce_locality(job, node);
  r.phase = ReducePhase::kStartup;
  ++r.attempts;
  job.note_reduce_assigned();
  note_task_start(job);
  if (observed()) emit(task_event(EventKind::kTaskAssigned, job, false, f));

  const auto epoch = r.epoch;
  r.pending_event = simulation_->schedule_in(
      job.spec().task_startup, [this, &job, f, epoch] {
        if (job.reduce_state(f).epoch != epoch) return;
        start_reduce_shuffle(job, f);
      });
}

void Engine::start_reduce_shuffle(JobRun& job, std::size_t f) {
  ReduceTaskState& r = job.reduce_state(f);
  r.phase = ReducePhase::kShuffling;
  if (observed()) emit(task_event(EventKind::kTaskReady, job, false, f));
  // Seed with every map that finished before this reduce started (skipping
  // outputs already copied by a pre-failure incarnation — there are none
  // on a fresh attempt because the kill resets the bitmap).
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const MapTaskState& m = job.map_state(j);
    if (m.phase == MapPhase::kDone && !r.fetched_map[j]) {
      r.pending_by_node[m.node.value()].push_back(j);
      ++r.pending_maps;
    }
  }
  arm_stall_watchdog(job, /*is_map=*/false, f);
  pump_reduce_fetchers(job, f);
}

void Engine::kill_reduce_attempt(JobRun& job, std::size_t f, bool requeue) {
  ReduceTaskState& r = job.reduce_state(f);
  MRS_REQUIRE(is_running(r.phase));
  touch_utilization();
  simulation_->cancel(r.pending_event);
  for (FlowId flow : r.inflight_flows) network_->cancel(flow);
  for (const auto& h : r.inflight_copies) simulation_->cancel(h);
  r.inflight_flows.clear();
  r.inflight_copies.clear();
  cluster_->release_reduce_slot(r.node);
  // Reset shuffle bookkeeping: a re-run refetches everything.
  for (auto& bucket : r.pending_by_node) bucket.clear();
  r.pending_maps = 0;
  r.fetched_maps = 0;
  r.active_fetchers = 0;
  r.bytes_fetched = 0.0;
  std::fill(r.fetched_map.begin(), r.fetched_map.end(), false);
  r.phase = ReducePhase::kUnassigned;
  r.postpone_count = 0;
  ++r.epoch;
  if (requeue) job.note_reduce_attempt_lost();
  if (observed()) emit(task_event(EventKind::kTaskKilled, job, false, f));
}

void Engine::pump_reduce_fetchers(JobRun& job, std::size_t f) {
  ReduceTaskState& r = job.reduce_state(f);
  if (r.phase != ReducePhase::kShuffling) return;

  const std::size_t nodes = cluster_->node_count();
  while (r.active_fetchers < kShuffleParallelFetchers &&
         r.pending_maps > 0) {
    // Prefer the local batch (no network), then the first non-empty source.
    std::size_t src = nodes;
    if (!r.pending_by_node[r.node.value()].empty()) {
      src = r.node.value();
    } else {
      for (std::size_t p = 0; p < nodes; ++p) {
        if (!r.pending_by_node[p].empty()) {
          src = p;
          break;
        }
      }
    }
    MRS_ASSERT(src < nodes);

    std::vector<std::size_t> batch = std::move(r.pending_by_node[src]);
    r.pending_by_node[src].clear();
    MRS_ASSERT(r.pending_maps >= batch.size());
    r.pending_maps -= batch.size();
    Bytes bytes = 0.0;
    for (std::size_t j : batch) bytes += job.final_partition(j, f);

    if (bytes <= 0.0) {
      // Nothing to move for this partition; account and keep pumping.
      r.fetched_maps += batch.size();
      for (std::size_t j : batch) r.fetched_map[j] = true;
      continue;
    }

    ++r.active_fetchers;
    const auto epoch = r.epoch;
    auto on_done = [this, &job, f, epoch, batch = std::move(batch),
                    bytes] {
      ReduceTaskState& rr = job.reduce_state(f);
      if (rr.epoch != epoch) return;  // attempt was killed mid-fetch
      --rr.active_fetchers;
      rr.fetched_maps += batch.size();
      rr.bytes_fetched += bytes;
      for (std::size_t j : batch) rr.fetched_map[j] = true;
      if (rr.fetched_maps == job.map_count()) {
        finish_reduce_shuffle(job, f);
        return;
      }
      pump_reduce_fetchers(job, f);
    };

    if (src == r.node.value()) {
      // Local copy: bounded by the node's disk rate, no network flow.
      const Seconds t = bytes / cluster_->node(r.node).disk_rate;
      r.inflight_copies.push_back(
          simulation_->schedule_in(t, std::move(on_done)));
    } else {
      r.network_bytes += bytes;
      r.inflight_flows.push_back(network_->transfer(
          NodeId(src), r.node, bytes, std::move(on_done)));
    }
  }

  if (r.fetched_maps == job.map_count() &&
      r.phase == ReducePhase::kShuffling) {
    finish_reduce_shuffle(job, f);
  }
}

void Engine::finish_reduce_shuffle(JobRun& job, std::size_t f) {
  ReduceTaskState& r = job.reduce_state(f);
  MRS_ASSERT(r.phase == ReducePhase::kShuffling);
  MRS_ASSERT(r.fetched_maps == job.map_count());
  r.phase = ReducePhase::kComputing;
  r.shuffle_done_at = now();
  r.inflight_flows.clear();
  r.inflight_copies.clear();
  Bytes total = 0.0;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    total += job.final_partition(j, f);
  }
  const Seconds duration =
      total / (job.spec().reduce_rate * cluster_->node(r.node).speed_factor);
  if (observed()) {
    EngineEvent e = task_event(EventKind::kShuffleDone, job, false, f);
    e.duration = duration;
    emit(e);
  }
  const auto epoch = r.epoch;
  r.pending_event =
      simulation_->schedule_in(duration, [this, &job, f, epoch] {
        if (job.reduce_state(f).epoch != epoch) return;
        finish_reduce(job, f);
      });
}

void Engine::finish_reduce(JobRun& job, std::size_t f) {
  ReduceTaskState& r = job.reduce_state(f);
  MRS_ASSERT(r.phase == ReducePhase::kComputing);
  ++r.epoch;  // no further callbacks for this attempt
  r.phase = ReducePhase::kDone;
  r.finished_at = now();
  touch_utilization();
  cluster_->release_reduce_slot(r.node);

  // Realized placement cost (Eq. 2 with ground-truth I). Locality was
  // classified at assignment time.
  double cost = 0.0;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const Bytes bytes = job.final_partition(j, f);
    cost += bytes * distance(job.map_state(j).node, r.node);
  }
  r.placement_cost = cost;

  job.note_reduce_finished();
  record_task(job, /*is_map=*/false, f);
  if (observed()) emit(task_event(EventKind::kTaskFinished, job, false, f));
  check_job_complete(job);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void Engine::fail_node(NodeId node) {
  if (!cluster_->node_alive(node)) return;  // already down
  log_info("t=%.1f node %zu failed", now(), node.value());
  if (observed()) {
    emit({.kind = EventKind::kNodeFailed, .time = now(), .node = node});
  }

  // Jobs whose attempt cap was blown by this failure; aborted after the
  // cluster state settles (abort kills attempts on other, alive nodes).
  std::vector<JobRun*> doomed;
  const auto note_attempt_loss = [this, &doomed](JobRun& job,
                                                 std::size_t attempts) {
    if (!attempt_cap_reached(attempts)) return;
    if (std::find(doomed.begin(), doomed.end(), &job) == doomed.end()) {
      doomed.push_back(&job);
    }
  };

  for (const auto& job_ptr : jobs_) {
    JobRun& job = *job_ptr;
    if (job.complete() || job.finish_time >= 0.0 || job.rejected) continue;

    // --- map attempts on the failed node ---
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      MapTaskState& s = job.map_state(j);
      // Backup copy on the dead node: drop it (primary keeps running).
      if (s.has_backup() && s.backup.node == node) {
        kill_map_attempt(job, j, /*backup=*/true);
      }
      // Primary on the dead node: kill both attempts (a surviving backup
      // is discarded too — simple and rare) and reschedule the task.
      if (is_running(s.phase) && s.node == node) {
        kill_map_attempt(job, j, /*backup=*/false);
        job.note_map_attempt_lost();
        note_attempt_loss(job, s.attempts);
      }
    }

    // --- completed map outputs stored on the failed node ---
    // An output is lost for every consumer that has not copied it yet;
    // if any active or future reduce still needs it, the map re-runs.
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      MapTaskState& s = job.map_state(j);
      if (s.phase != MapPhase::kDone || s.node != node) continue;
      bool needed = false;
      for (std::size_t f = 0; f < job.reduce_count() && !needed; ++f) {
        const ReduceTaskState& r = job.reduce_state(f);
        needed = r.phase != ReducePhase::kDone && !r.fetched_map[j];
      }
      if (!needed) continue;
      // Remove any still-pending shuffle entries referencing this output.
      for (std::size_t f = 0; f < job.reduce_count(); ++f) {
        ReduceTaskState& r = job.reduce_state(f);
        if (r.phase != ReducePhase::kShuffling) continue;
        auto& bucket = r.pending_by_node[node.value()];
        const auto it = std::find(bucket.begin(), bucket.end(), j);
        if (it != bucket.end()) {
          bucket.erase(it);
          --r.pending_maps;
        }
      }
      s.phase = MapPhase::kUnassigned;
      s.compute_start = -1.0;
      s.compute_duration = 0.0;
      ++s.epoch;
      job.note_map_output_lost();
      note_attempt_loss(job, s.attempts);
      log_debug("t=%.1f map %zu of %s re-runs (output lost)", now(), j,
                job.spec().name.c_str());
    }

    // --- reduce attempts on the failed node ---
    for (std::size_t f = 0; f < job.reduce_count(); ++f) {
      ReduceTaskState& r = job.reduce_state(f);
      if (is_running(r.phase) && r.node == node) {
        kill_reduce_attempt(job, f);
        note_attempt_loss(job, r.attempts);
      }
    }
  }

  touch_utilization();
  cluster_->set_node_alive(node, false);
  note_node_failure(node);

  for (JobRun* job : doomed) abort_job(*job);
}

void Engine::recover_node(NodeId node) {
  if (cluster_->node_alive(node)) return;
  log_info("t=%.1f node %zu recovered", now(), node.value());
  if (observed()) {
    emit({.kind = EventKind::kNodeRecovered, .time = now(), .node = node});
  }
  touch_utilization();
  // Withhold slots first, then revive: the node never transits through
  // the free-slot index while on probation.
  begin_probation(node);
  cluster_->set_node_alive(node, true);
}

void Engine::begin_probation(NodeId node) {
  std::uint64_t probation_epoch = 0;
  const Seconds probation =
      blacklist_.start_probation_on_recovery(node, &probation_epoch);
  if (probation <= 0.0) return;
  cluster_->set_node_schedulable(node, false);
  simulation_->schedule_in(probation, [this, node, probation_epoch] {
    if (!blacklist_.end_probation(node, probation_epoch)) return;
    touch_utilization();
    cluster_->set_node_schedulable(node, true);
    if (observed()) {
      emit({.kind = EventKind::kNodeUnblacklisted, .time = now(),
            .node = node});
    }
    log_info("t=%.1f node %zu off blacklist", now(), node.value());
  });
}

// ---------------------------------------------------------------------------
// Transfer stall watchdog (graceful degradation under network faults)
// ---------------------------------------------------------------------------
//
// With stall_timeout > 0 every remote map fetch and reduce shuffle is
// watched: when its flows sit at rate 0 (a cut link zeroes effective
// capacity and NetworkService parks the flow) for a full timeout window,
// the attempt is killed and retried after a capped exponential backoff —
// the task re-enters the scheduler pool, which by then may see post-fault
// distances and route around the break. Repeated stall kills on one node
// feed the blacklist exactly like task failures, so a node behind a
// persistently broken path sits out a probation. With the default
// stall_timeout == 0 none of this arms a single event or touches RNG:
// runs are byte-identical to the watchdog-free engine.

Seconds Engine::stall_backoff(std::size_t retries) const {
  MRS_ASSERT(retries > 0);
  Seconds backoff = config_.stall_backoff_base;
  for (std::size_t i = 1; i < retries && backoff < config_.stall_backoff_cap;
       ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, config_.stall_backoff_cap);
}

bool Engine::note_node_failure(NodeId node) {
  const bool was_listed = blacklist_.listed(node);
  blacklist_.note_failure(node, now());
  const bool listed = blacklist_.listed(node);
  if (listed && !was_listed && observed()) {
    emit({.kind = EventKind::kNodeBlacklisted, .time = now(), .node = node});
  }
  return listed;
}

void Engine::arm_stall_watchdog(JobRun& job, bool is_map, std::size_t task) {
  if (config_.stall_timeout <= 0.0) return;
  const auto epoch = task_epoch(job, is_map, task);
  simulation_->schedule_in(
      config_.stall_timeout, [this, &job, is_map, task, epoch] {
        if (task_epoch(job, is_map, task) != epoch) return;  // attempt gone
        check_stall(job, is_map, task);
      });
}

Engine::StallVerdict Engine::stall_verdict(const JobRun& job, bool is_map,
                                           std::size_t task) const {
  if (is_map) {
    const MapTaskState& s = job.map_state(task);
    if (s.phase != MapPhase::kFetching) return StallVerdict::kOver;
    const bool stalled = s.fetch_flow.valid() &&
                         network_->flows().info(s.fetch_flow).stalled;
    // An active backup is already the mitigation for this attempt: let the
    // race resolve instead of killing both sides of it.
    return stalled && !s.has_backup() ? StallVerdict::kStalled
                                      : StallVerdict::kMoving;
  }
  const ReduceTaskState& r = job.reduce_state(task);
  if (r.phase != ReducePhase::kShuffling) return StallVerdict::kOver;
  // inflight_flows keeps completed ids until the shuffle resolves; the
  // stall verdict only counts flows still active. Stalled means every
  // in-flight fetch sits at rate 0 — a single live fetcher still makes
  // progress and will free a slot for the pending batches.
  std::size_t active = 0;
  std::size_t stalled = 0;
  for (const FlowId flow : r.inflight_flows) {
    const net::FlowInfo& info = network_->flows().info(flow);
    if (!info.active) continue;
    ++active;
    stalled += info.stalled ? 1 : 0;
  }
  return active > 0 && stalled == active ? StallVerdict::kStalled
                                         : StallVerdict::kMoving;
}

void Engine::check_stall(JobRun& job, bool is_map, std::size_t task) {
  switch (stall_verdict(job, is_map, task)) {
    case StallVerdict::kOver:
      return;
    case StallVerdict::kMoving:
      arm_stall_watchdog(job, is_map, task);
      return;
    case StallVerdict::kStalled:
      break;
  }
  const auto kill = [&](auto& s) {
    const NodeId node = s.node;
    ++s.stall_retries;
    if (observed()) {
      emit(task_event(EventKind::kStallTimeout, job, is_map, task));
    }
    is_map ? kill_map_attempt(job, task, /*backup=*/false)
           : kill_reduce_attempt(job, task, /*requeue=*/false);
    // The node is alive (its transfers stalled; it did not crash), so the
    // recovery hook that normally starts probation never runs — start
    // (or, on a repeat offense mid-probation, restart) it here.
    // note_failure just invalidated any pending probation end, so without
    // this restart the node would stay unschedulable forever.
    if (note_node_failure(node) && cluster_->node_alive(node)) {
      begin_probation(node);
    }
    if (attempt_cap_reached(s.attempts)) {
      abort_job(job);
      return;
    }
    // Park in backoff before re-entering the pool: an instant retry would
    // often be placed right back onto the still-broken path.
    s.phase = decltype(s.phase)::kBackoff;
    simulation_->schedule_in(
        stall_backoff(s.stall_retries),
        [this, &job, is_map, task, epoch = s.epoch] {
          end_stall_backoff(job, is_map, task, epoch);
        });
  };
  is_map ? kill(job.map_state(task)) : kill(job.reduce_state(task));
}

void Engine::end_stall_backoff(JobRun& job, bool is_map, std::size_t task,
                               std::uint64_t epoch) {
  if (job.aborted || job.finish_time >= 0.0) return;
  const auto requeue = [epoch](auto& s) {
    using Phase = decltype(s.phase);
    if (s.epoch != epoch || s.phase != Phase::kBackoff) return false;
    s.phase = Phase::kUnassigned;
    return true;
  };
  if (!(is_map ? requeue(job.map_state(task))
               : requeue(job.reduce_state(task)))) {
    return;
  }
  is_map ? job.note_map_attempt_lost() : job.note_reduce_attempt_lost();
  if (observed()) emit(task_event(EventKind::kStallRetry, job, is_map, task));
}

// ---------------------------------------------------------------------------
// Completion & records
// ---------------------------------------------------------------------------

void Engine::record_task(const JobRun& job, bool is_map, std::size_t index) {
  TaskRecord rec;
  rec.job = job.id();
  rec.kind = job.spec().kind;
  rec.is_map = is_map;
  rec.index = index;
  const auto fill = [&rec](const auto& state) {
    rec.node = state.node;
    rec.locality = state.locality;
    rec.assigned_at = state.assigned_at;
    rec.finished_at = state.finished_at;
    rec.placement_cost = state.placement_cost;
    rec.attempts = state.attempts;
    rec.network_bytes = state.network_bytes;
  };
  is_map ? fill(job.map_state(index)) : fill(job.reduce_state(index));
  task_records_.push_back(rec);
}

std::vector<JobRecord> Engine::unfinished_job_records() const {
  std::vector<JobRecord> out;
  for (const auto& job_ptr : jobs_) {
    const JobRun& job = *job_ptr;
    if (job.finish_time >= 0.0) continue;  // completed: in job_records()
    if (job.rejected) continue;  // never entered the system
    out.push_back(job_record(job));  // finish_time -1: truncated
  }
  return out;
}

JobRecord Engine::job_record(const JobRun& job) const {
  JobRecord rec;
  rec.id = job.id();
  rec.name = job.spec().name;
  rec.kind = job.spec().kind;
  rec.tenant = job.spec().tenant;
  rec.map_count = job.map_count();
  rec.reduce_count = job.reduce_count();
  rec.input_bytes = job.spec().total_input();
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    rec.shuffle_bytes += job.total_map_output(j);
  }
  rec.submit_time = job.submit_time;
  rec.finish_time = job.finish_time;
  rec.aborted = job.aborted;
  return rec;
}

void Engine::check_job_complete(JobRun& job) {
  if (!job.complete() || job.finish_time >= 0.0) return;
  retire_job(job, EventKind::kJobFinished);
  log_debug("t=%.1f job %s complete (%zu/%zu)", now(),
            job.spec().name.c_str(), jobs_completed_, jobs_.size());
  if (all_jobs_complete()) heartbeats_.stop();
}

}  // namespace mrs::mapreduce
