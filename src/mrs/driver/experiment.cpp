#include "mrs/driver/experiment.hpp"

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "mrs/common/log.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/striped.hpp"
#include "mrs/hetero/unrelated.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sched/coupling.hpp"
#include "mrs/sched/fifo.hpp"
#include "mrs/sched/larts.hpp"
#include "mrs/sched/mincost.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/telemetry/export.hpp"
#include "mrs/telemetry/perfetto.hpp"
#include "mrs/trace/jsonl.hpp"
#include "mrs/trace/recorder.hpp"

namespace mrs::driver {

namespace {

net::Topology make_topology(const ExperimentConfig& cfg) {
  MRS_REQUIRE(cfg.nodes >= 1 && cfg.racks >= 1);
  if (cfg.fat_tree_k != 0) {
    const std::size_t k = cfg.fat_tree_k;
    MRS_REQUIRE(k >= 2 && k % 2 == 0);
    MRS_REQUIRE(cfg.nodes == k * k * k / 4);  // keep slot accounting honest
    return net::make_fat_tree({k, cfg.host_link});
  }
  if (cfg.racks == 1) {
    return net::make_single_rack(cfg.nodes, cfg.host_link);
  }
  MRS_REQUIRE(cfg.nodes % cfg.racks == 0);  // keep slot accounting honest
  net::TreeTopologyConfig tree;
  tree.racks = cfg.racks;
  tree.hosts_per_rack = cfg.nodes / cfg.racks;
  tree.host_link = cfg.host_link;
  tree.uplink = cfg.rack_uplink;
  return net::make_multi_rack_tree(tree);
}

std::unique_ptr<mapreduce::TaskScheduler> make_scheduler(
    const ExperimentConfig& cfg, Rng rng) {
  switch (cfg.scheduler) {
    case SchedulerKind::kFifo:
      return std::make_unique<sched::FifoScheduler>();
    case SchedulerKind::kFair:
      return std::make_unique<sched::FairScheduler>(cfg.fair,
                                                    std::move(rng));
    case SchedulerKind::kCoupling:
      return std::make_unique<sched::CouplingScheduler>(
          sched::CouplingConfig{}, std::move(rng));
    case SchedulerKind::kLarts:
      return std::make_unique<sched::LartsScheduler>(sched::LartsConfig{});
    case SchedulerKind::kMinCost:
      return std::make_unique<sched::MinCostScheduler>();
    case SchedulerKind::kPna: {
      core::PnaConfig pna = cfg.pna;
      if (cfg.naive_scheduler_path) pna.incremental_scoring = false;
      return std::make_unique<core::PnaScheduler>(pna, std::move(rng));
    }
    case SchedulerKind::kUnrelated:
      return std::make_unique<hetero::UnrelatedScheduler>();
  }
  MRS_REQUIRE(false && "unknown scheduler kind");
  return nullptr;
}

/// Shared core of the batch and streaming runners. With `source == nullptr`
/// every job comes pre-materialised from cfg.jobs (the batch path);
/// otherwise arrivals are pulled from `source` one at a time and submitted
/// `lookahead` sim-seconds ahead of their arrival times.
ExperimentResult run_experiment_impl(const ExperimentConfig& cfg,
                                     workload::ArrivalSource* source,
                                     Seconds lookahead) {
  const bool streaming = source != nullptr;
  if (streaming) {
    MRS_REQUIRE(cfg.jobs.empty() && cfg.submit_times.empty());
    MRS_REQUIRE(lookahead > 0.0);
  } else {
    MRS_REQUIRE(!cfg.jobs.empty());
  }
  const Rng root(cfg.seed);

  // Substrates. Note: every workload-shaping stream is split from the root
  // with a scheduler-independent label, so runs differing only in
  // `scheduler` see byte-identical workloads (Fig. 5 pairing).
  net::Topology topo = make_topology(cfg);
  // Heterogeneity profile: node -> class assignment on labeled sub-streams
  // of the root (scheduler-independent, like every workload stream), NIC
  // scales applied before any consumer reads link capacities.
  hetero::NodeClassProfile profile;
  if (cfg.hetero.enabled()) {
    profile = hetero::NodeClassProfile(cfg.hetero, topo, root);
    topo.scale_host_link_capacities(profile.link_scales());
  }
  const bool needs_condition =
      cfg.background.mean_utilization > 0.0 ||
      cfg.background.burst_probability > 0.0 ||
      cfg.distance_mode == DistanceMode::kInverseRate ||
      cfg.distance_mode == DistanceMode::kWeightedPerLink ||
      cfg.net_faults.enabled();  // faults need a model to land in
  std::unique_ptr<net::LinkConditionModel> cond;
  if (needs_condition) {
    cond = std::make_unique<net::LinkConditionModel>(
        &topo, cfg.background, root.split("background"));
  }

  dfs::BlockStore store(topo.host_count());
  dfs::BlockPlacer placer(&topo, root.split("placement"));
  std::vector<mapreduce::JobSpec> specs =
      streaming ? std::vector<mapreduce::JobSpec>{}
                : workload::make_batch(cfg.jobs, store, placer, cfg.workload);
  if (!cfg.submit_times.empty()) {
    MRS_REQUIRE(cfg.submit_times.size() == specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].submit_time = cfg.submit_times[i];
    }
  }
  if (cfg.emit_nonlinearity_override) {
    for (auto& spec : specs) {
      spec.emit_nonlinearity = *cfg.emit_nonlinearity_override;
    }
  }

  sim::Simulation simulation;
  cluster::Cluster cluster =
      profile.enabled()
          ? cluster::Cluster(&topo, profile.node_configs(cfg.node),
                             profile.class_names(), root.split("cluster"))
          : cluster::Cluster(&topo, cfg.node, root.split("cluster"));
  if (cfg.naive_scheduler_path) cluster.set_naive_free_scan(true);
  sim::NetworkService network(&simulation, &topo, cond.get());
  if (cfg.naive_scheduler_path || cfg.naive_flow_solver) {
    network.set_naive_flow_solver(true);
  }
  network.set_flow_solver_threads(cfg.flow_solver_threads);

  std::unique_ptr<net::DistanceProvider> distance;
  switch (cfg.distance_mode) {
    case DistanceMode::kHops:
      distance = std::make_unique<net::HopDistanceProvider>(topo);
      break;
    case DistanceMode::kInverseRate:
      distance = std::make_unique<net::RateDistanceProvider>(
          cond.get(), net::RateDistanceProvider::Form::kBottleneck);
      break;
    case DistanceMode::kWeightedPerLink:
      distance = std::make_unique<net::RateDistanceProvider>(
          cond.get(), net::RateDistanceProvider::Form::kPerLinkSum);
      break;
    case DistanceMode::kLoadAware:
      distance = std::make_unique<net::LoadAwareDistanceProvider>(
          &topo, &network.flows(), cond.get());
      break;
  }
  mapreduce::Engine engine(&simulation, &cluster, &store, &network,
                           distance.get(), cfg.engine,
                           root.split("engine"));
  mapreduce::FailureInjector failures(&simulation, &engine, &cluster,
                                      cfg.failures, root.split("failures"));
  control::NetworkFaultInjector net_faults(
      &simulation, &network, cond.get(), &topo, cfg.net_faults,
      root.split("netfaults"), [&engine] {
        return engine.all_jobs_complete();
      });

  std::size_t job_index = 0;
  for (const auto& spec : specs) {
    engine.submit(spec, root.split("job" + std::to_string(job_index++)));
  }

  // Streaming pump: holds exactly one pending arrival; submits every
  // arrival within `lookahead` of the clock, then re-arms itself at
  // (next arrival - lookahead). Arrivals materialise into JobSpecs in
  // yield order, so placer/engine RNG draws match the batch path draw for
  // draw — the byte-identity contract of run_experiment_streamed. The
  // initial window is submitted below, before engine.start(), so those
  // activations are scheduled ahead of the heartbeat arms exactly as in
  // the batch path.
  std::optional<workload::Arrival> pending;
  std::function<void()> pump = [&] {
    const Seconds now = simulation.now();
    while (pending && pending->time <= now + lookahead) {
      mapreduce::JobSpec spec = workload::make_job_spec(
          pending->job, workload::profile_for(pending->job.kind), store,
          placer, cfg.workload, pending->time);
      if (cfg.emit_nonlinearity_override) {
        spec.emit_nonlinearity = *cfg.emit_nonlinearity_override;
      }
      engine.submit(std::move(spec),
                    root.split("job" + std::to_string(job_index++)));
      pending = source->next();
    }
    if (!pending) {
      engine.close_stream();
      return;
    }
    simulation.schedule_at(std::max(now, pending->time - lookahead), pump);
  };
  if (streaming) {
    engine.open_stream();
    pending = source->next();
  }

  auto scheduler = make_scheduler(cfg, root.split("scheduler"));
  engine.set_scheduler(scheduler.get());

  // Admission controller (policies are RNG-free, so installing the
  // always-admit default changes nothing about the run).
  std::unique_ptr<control::AdmissionController> admission;
  if (cfg.enable_admission) {
    admission = std::make_unique<control::AdmissionController>(cfg.admission);
    engine.set_admission(admission.get());
  }

  // Causal tracing (span trees + decision records + critical-path blame).
  // The recorder and decision log observe lifecycle/placement events
  // without touching RNG or scheduling, so an untraced run is
  // byte-identical (tested by CausalTrace.DisabledIsByteIdentical).
  const bool tracing = cfg.enable_tracing || !cfg.causal_trace_path.empty();
  std::unique_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<trace::DecisionLog> decision_log;
  if (tracing) {
    recorder = std::make_unique<trace::TraceRecorder>();
    decision_log = std::make_unique<trace::DecisionLog>();
    engine.add_observer(recorder.get());
    scheduler->set_decision_log(decision_log.get());
  }

  // One registry per run: metric values stay deterministic per (config,
  // seed) and parallel run_experiments shares no mutable state.
  telemetry::Registry registry;
  if (cfg.enable_telemetry) {
    engine.set_telemetry(&registry);
    scheduler->set_telemetry(&registry);
    if (admission) admission->set_telemetry(&registry);
    if (cfg.net_faults.enabled()) net_faults.set_telemetry(&registry);
  }

  std::unique_ptr<mapreduce::CsvTraceSink> trace;
  mapreduce::MemoryTraceSink perfetto_events;
  if (!cfg.trace_path.empty()) {
    trace = std::make_unique<mapreduce::CsvTraceSink>(cfg.trace_path);
    engine.add_observer(trace.get());
  }
  if (!cfg.perfetto_path.empty()) engine.add_observer(&perfetto_events);

  // Periodic gauge sampler (jobs in system, queue depths, utilization,
  // offered vs completed work). The `done` predicate lets the event queue
  // drain once all jobs finish instead of self-rescheduling forever.
  MRS_REQUIRE(cfg.sample_period >= 0.0);
  std::unique_ptr<telemetry::Sampler> sampler;
  if (cfg.sample_period > 0.0) {
    std::vector<std::string> columns = {
        "jobs_in_system",  "maps_queued",       "reduces_queued",
        "busy_map_slots",  "busy_reduce_slots", "map_slot_util",
        "reduce_slot_util", "jobs_arrived",     "jobs_completed",
        "deferral_queue_depth"};
    // Per-node slot gauges (opt-in: slot idling visible without a full
    // trace). Appended after the default columns so existing consumers
    // keep their indices.
    const bool node_slots = cfg.sample_node_slots;
    if (node_slots) {
      for (std::size_t n = 0; n < cluster.node_count(); ++n) {
        columns.push_back(strf("node%zu.map_slots.busy", n));
        columns.push_back(strf("node%zu.map_slots.free", n));
        columns.push_back(strf("node%zu.reduce_slots.busy", n));
        columns.push_back(strf("node%zu.reduce_slots.free", n));
      }
    }
    // Only chaos-enabled runs grow this last column, so the non-fault
    // layout (and every consumer indexing it) is untouched.
    const net::LinkConditionModel* fault_cond =
        cfg.net_faults.enabled() ? cond.get() : nullptr;
    if (fault_cond != nullptr) columns.push_back("faulted_link_count");
    std::vector<telemetry::Gauge*> gauges;
    gauges.reserve(columns.size());
    for (const auto& c : columns) {
      gauges.push_back(&registry.gauge("sample." + c));
    }
    control::AdmissionController* adm = admission.get();
    sampler = std::make_unique<telemetry::Sampler>(
        &simulation, columns, cfg.sample_period,
        [&engine, &cluster, adm, gauges, node_slots,
         fault_cond](Seconds, std::vector<double>& row) {
          std::size_t maps_queued = 0, reduces_queued = 0;
          for (const mapreduce::JobRun* job : engine.active_jobs()) {
            maps_queued += job->maps_unassigned();
            reduces_queued += job->reduces_unassigned();
          }
          const auto busy_m = cluster.busy_map_slots();
          const auto busy_r = cluster.busy_reduce_slots();
          const auto total_m = cluster.total_map_slots();
          const auto total_r = cluster.total_reduce_slots();
          row = {static_cast<double>(engine.active_jobs().size()),
                 static_cast<double>(maps_queued),
                 static_cast<double>(reduces_queued),
                 static_cast<double>(busy_m),
                 static_cast<double>(busy_r),
                 total_m > 0 ? static_cast<double>(busy_m) /
                                   static_cast<double>(total_m)
                             : 0.0,
                 total_r > 0 ? static_cast<double>(busy_r) /
                                   static_cast<double>(total_r)
                             : 0.0,
                 static_cast<double>(engine.jobs_activated()),
                 static_cast<double>(engine.jobs_completed()),
                 adm != nullptr
                     ? static_cast<double>(adm->deferral_queue_depth())
                     : 0.0};
          if (node_slots) {
            for (std::size_t n = 0; n < cluster.node_count(); ++n) {
              const auto& ns = cluster.node(NodeId(n));
              row.push_back(static_cast<double>(ns.busy_map_slots));
              row.push_back(static_cast<double>(ns.free_map_slots()));
              row.push_back(static_cast<double>(ns.busy_reduce_slots));
              row.push_back(static_cast<double>(ns.free_reduce_slots()));
            }
          }
          if (fault_cond != nullptr) {
            row.push_back(
                static_cast<double>(fault_cond->faulted_link_count()));
          }
          for (std::size_t i = 0; i < row.size(); ++i) {
            gauges[i]->set(row[i]);  // snapshot carries the last sample
          }
        },
        [&engine] { return engine.all_jobs_complete(); });
    sampler->start();
  }

  if (streaming) pump();  // submit the initial lookahead window
  engine.start();
  failures.start();
  net_faults.start();
  {
    telemetry::ScopedTimer run_timer(&registry.timer("driver.run_wall"));
    simulation.run(cfg.max_sim_time);
  }

  ExperimentResult result;
  result.scheduler_name = scheduler->name();
  result.completed = engine.all_jobs_complete();
  if (!result.completed) {
    log_warn("experiment did not complete within %.0f sim-seconds",
             cfg.max_sim_time);
  }
  result.task_records = engine.task_records();
  result.job_records = engine.job_records();
  if (!result.completed) {
    // Truncated run: append sentinel records (finish_time = -1) so the
    // steady-state metrics can count the stranded jobs instead of seeing
    // them vanish (or worse, fold a bogus completion time into the
    // percentiles).
    auto unfinished = engine.unfinished_job_records();
    result.job_records.insert(result.job_records.end(),
                              std::make_move_iterator(unfinished.begin()),
                              std::make_move_iterator(unfinished.end()));
  }
  result.utilization = engine.utilization();
  for (const auto& j : result.job_records) {
    result.makespan = std::max(result.makespan, j.finish_time);
  }
  result.events_processed = simulation.processed_count();
  result.jobs_rejected = engine.jobs_rejected();
  result.jobs_aborted = engine.jobs_aborted();
  if (admission) {
    result.admission_outcomes.assign(admission->outcomes().begin(),
                                     admission->outcomes().end());
    result.admission_policy = admission->policy_name();
  }
  if (profile.enabled()) {
    result.node_classes.reserve(profile.class_count());
    for (std::size_t c = 0; c < profile.class_count(); ++c) {
      const hetero::NodeClass& nc = profile.cls(c);
      result.node_classes.push_back({nc.name, profile.class_size(c),
                                     nc.cpu_speed, nc.map_slots,
                                     nc.reduce_slots, nc.link_scale});
    }
  }
  result.telemetry = registry.snapshot();
  if (sampler) result.samples = sampler->series();
  if (tracing) {
    result.tracing_enabled = true;
    result.job_traces = recorder->jobs();
    result.decisions = decision_log->records();
    result.job_blames.reserve(result.job_traces.size());
    for (const auto& jt : result.job_traces) {
      if (auto blame = trace::blame_job(jt)) {
        result.job_blames.push_back(*blame);
      }
    }
    std::vector<std::string> class_of;
    if (cluster.has_node_classes()) {
      class_of.reserve(cluster.node_count());
      for (std::size_t n = 0; n < cluster.node_count(); ++n) {
        class_of.push_back(
            cluster.class_name(cluster.node(NodeId(n)).class_index));
      }
    }
    result.critical_path =
        trace::summarize_critical_paths(result.job_blames, class_of);
    if (!cfg.causal_trace_path.empty()) {
      trace::write_jsonl(cfg.causal_trace_path, result.job_traces,
                         result.decisions, result.job_blames);
    }
  }
  if (!cfg.telemetry_path.empty()) {
    telemetry::write_jsonl(cfg.telemetry_path, result.telemetry,
                           result.samples);
  }
  if (!cfg.perfetto_path.empty()) {
    telemetry::write_chrome_trace(cfg.perfetto_path,
                                  perfetto_events.events(), result.telemetry,
                                  result.samples, result.decisions);
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  return run_experiment_impl(cfg, nullptr, 0.0);
}

ExperimentResult run_experiment_streamed(const ExperimentConfig& cfg,
                                         workload::ArrivalSource& source,
                                         Seconds lookahead) {
  return run_experiment_impl(cfg, &source, lookahead);
}

void run_striped(std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(hw, n);
  // Static striping: each index writes only its own result slot, so no
  // synchronisation is needed (Core Guidelines CP.20-ish: share nothing
  // mutable).
  std::vector<std::exception_ptr> errors(workers);
  {
    std::vector<std::jthread> threads;  // joined on every exit from here
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([w, workers, n, &body, &errors] {
        try {
          for (std::size_t i = w; i < n; i += workers) body(i);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentConfig> configs) {
  std::vector<ExperimentResult> results(configs.size());
  run_striped(configs.size(), [&](std::size_t i) {
    results[i] = run_experiment(configs[i]);
  });
  return results;
}

ExperimentConfig paper_config(std::vector<workload::JobDescription> jobs,
                              SchedulerKind scheduler, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.nodes = 60;
  cfg.racks = 1;  // Palmetto assigned all slave nodes to one rack
  cfg.node.map_slots = 4;
  cfg.node.reduce_slots = 2;
  cfg.jobs = std::move(jobs);
  cfg.scheduler = scheduler;
  cfg.pna.p_min = 0.4;
  cfg.seed = seed;
  // Palmetto is a shared, multi-tenant cluster: links carry other tenants'
  // traffic ("the network bandwidth is shared among multiple jobs and the
  // links have varied available bandwidths", Sec. II-B-3). The scheduler
  // under test sees it through the per-link weighted distance.
  // Interference persists for minutes (tenant jobs are long-lived), so a
  // placement made against the current link state stays meaningful.
  cfg.background.mean_utilization = 0.20;
  cfg.background.burst_utilization = 0.45;
  cfg.background.burst_probability = 0.20;
  cfg.background.resample_interval = 180.0;
  cfg.background.uplinks_only = false;
  cfg.distance_mode = DistanceMode::kLoadAware;
  return cfg;
}

}  // namespace mrs::driver
