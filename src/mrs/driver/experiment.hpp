// One-call experiment runner: wires topology, DFS, cluster, network,
// engine, workload and a scheduler together, runs the simulation to
// completion, and returns the records the metrics module consumes.
//
// Determinism contract: the workload (block placement, intermediate-data
// ground truth, submit times) depends only on (config.seed, config.jobs),
// never on the scheduler choice — so runs that differ only in `scheduler`
// are exactly paired, as Fig. 5 requires.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrs/cluster/cluster.hpp"
#include "mrs/control/admission.hpp"
#include "mrs/control/fault_injector.hpp"
#include "mrs/core/pna_scheduler.hpp"
#include "mrs/hetero/node_class.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/failure_injector.hpp"
#include "mrs/mapreduce/records.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/sched/fair.hpp"
#include "mrs/telemetry/registry.hpp"
#include "mrs/telemetry/sampler.hpp"
#include "mrs/trace/critical_path.hpp"
#include "mrs/trace/decision.hpp"
#include "mrs/trace/span.hpp"
#include "mrs/workload/arrivals.hpp"
#include "mrs/workload/table2.hpp"

namespace mrs::driver {

enum class SchedulerKind {
  kFifo,      ///< Hadoop's original FIFO scheduler
  kFair,      ///< Fair Scheduler + Delay Scheduling [3,7]
  kCoupling,  ///< Coupling Scheduler [5,17]
  kLarts,     ///< locality-aware reduce scheduling [4]
  kMinCost,   ///< Quincy-inspired deterministic min-regret matching [20]
  kPna,       ///< the paper's probabilistic network-aware scheduler
  kUnrelated, ///< greedy min-completion-time on unrelated machines
};

[[nodiscard]] constexpr const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kFair: return "fair";
    case SchedulerKind::kCoupling: return "coupling";
    case SchedulerKind::kLarts: return "larts";
    case SchedulerKind::kMinCost: return "mincost";
    case SchedulerKind::kPna: return "probabilistic";
    case SchedulerKind::kUnrelated: return "unrelated";
  }
  return "?";
}

/// Which distance matrix H the schedulers see (Sec. II-B-3).
enum class DistanceMode {
  kHops,             ///< static hop counts (the paper's default H)
  kInverseRate,      ///< bottleneck inverse transmission rate
  kWeightedPerLink,  ///< per-link inverse-rate sum (keeps hop sensitivity)
  kLoadAware,        ///< live path-probe rates incl. foreground transfers
};

struct ExperimentConfig {
  // --- cluster & network (paper: 60 nodes, 4 map + 2 reduce slots) ---
  std::size_t nodes = 60;
  std::size_t racks = 1;  ///< 1 = the paper's single-rack allocation
  /// When non-zero, build a k-ary fat-tree instead of the rack tree (k even,
  /// k^3/4 hosts — k=16 is the 1k-host datacenter case). `nodes` must equal
  /// k^3/4 so slot accounting (stream experiments, benches) stays
  /// consistent; `racks` is ignored.
  std::size_t fat_tree_k = 0;
  BytesPerSec host_link = units::Gbps(1);
  BytesPerSec rack_uplink = units::Gbps(10);
  cluster::NodeConfig node;
  /// Heterogeneous node classes (empty = the homogeneous cluster above,
  /// byte-identical to runs predating the subsystem). When enabled, the
  /// class assignment is drawn on scheduler-independent labeled
  /// sub-streams, per-node slots/speed/disk come from each node's class,
  /// and host NIC capacities are scaled by the class link_scale.
  hetero::HeteroConfig hetero;

  // --- background traffic / distance source ---
  net::BackgroundTrafficConfig background;  ///< zero by default
  DistanceMode distance_mode = DistanceMode::kHops;

  // --- engine ---
  mapreduce::EngineConfig engine;
  mapreduce::FailureInjectorConfig failures;  ///< disabled by default
  /// Network chaos (link cuts, switch faults, surge episodes); disabled by
  /// default. Enabling it forces the link-condition model on (faults need
  /// somewhere to land) and appends a `faulted_link_count` sampler column.
  control::NetworkFaultInjectorConfig net_faults;

  // --- admission control plane ---
  /// Policy + deferral knobs. The default always-admit policy with
  /// `enable_admission = true` is a provable no-op: the controller decides
  /// kAdmit at every submit time, consumes no RNG, and the run is
  /// byte-identical to enable_admission = false (the equivalence tests
  /// pin this).
  control::AdmissionConfig admission;
  bool enable_admission = true;

  // --- workload ---
  workload::WorkloadConfig workload;
  std::vector<workload::JobDescription> jobs;
  /// When non-empty, per-job submission times (same order/length as
  /// `jobs`), overriding workload.submit_spacing. This is how open-loop
  /// arrival streams enter the existing runner.
  std::vector<Seconds> submit_times;
  /// When set, overrides every job's map-emission ramp exponent alpha
  /// (1.0 = linear; larger = back-loaded output). Stresses the Eq. 3
  /// estimator in the ablation benches.
  std::optional<double> emit_nonlinearity_override;

  // --- scheduler under test ---
  /// The Coupling, LARTS, mincost and unrelated baselines run with their
  /// default configurations.
  SchedulerKind scheduler = SchedulerKind::kPna;
  core::PnaConfig pna;
  sched::FairConfig fair;

  /// Disable every incremental scoring structure: the cluster's free-slot
  /// index falls back to a full node scan per query and the PNA scheduler
  /// recomputes C_ave naively. Placements must be byte-identical either
  /// way — the equivalence tests run each config both ways and compare.
  /// Also selects the reference full-scan flow solver, so the flow-model
  /// fast path is covered by the same end-to-end identity contract.
  bool naive_scheduler_path = false;
  /// Reference full-scan flow solver only (the flow-model half of
  /// `naive_scheduler_path`), for isolating flow-solver divergence.
  bool naive_flow_solver = false;
  /// Worker threads for full flow-rate recomputations (deterministic
  /// component-parallel sweep; <= 1 = serial).
  std::size_t flow_solver_threads = 1;

  std::uint64_t seed = 42;
  /// Safety stop: abort (and fail) if the simulation exceeds this.
  Seconds max_sim_time = 1e7;
  /// When non-empty, write an execution trace CSV to this path.
  std::string trace_path;

  // --- telemetry ---
  /// When false, no registry is attached to the engine/scheduler: every
  /// metric pointer stays null and the hot path pays only the null check.
  /// The telemetry-overhead bench uses this as its baseline.
  bool enable_telemetry = true;
  /// When > 0, a sampler snapshots cluster gauges (jobs in system, queue
  /// depths, slot utilization, arrived vs completed) every this many
  /// sim-seconds into ExperimentResult::samples.
  Seconds sample_period = 0.0;
  /// When non-empty, write the telemetry JSONL (time-series + final
  /// snapshot; see docs/telemetry.md) to this path.
  std::string telemetry_path;
  /// When non-empty, write a Chrome trace-event JSON (ui.perfetto.dev)
  /// built from the execution trace, sampled gauges and wall timers.
  std::string perfetto_path;

  // --- causal tracing (docs/tracing.md) ---
  /// Record per-job span trees, placement decision records, and per-job
  /// critical-path blame into ExperimentResult. Off by default: the
  /// engine/scheduler trace pointers stay null and the run is
  /// byte-identical to an untraced one (tested).
  bool enable_tracing = false;
  /// When non-empty, write the causal trace JSONL (jobs, spans,
  /// decisions, blames — the input of tools/trace_analyze) to this path.
  /// Implies enable_tracing.
  std::string causal_trace_path;
  /// Append per-node `node<N>.map_slots.busy/.free` (and reduce) gauge
  /// columns to the sampler so slot idling is visible in the time series
  /// without a full trace. Default columns are unchanged when off.
  bool sample_node_slots = false;
};

/// Composition of one node class as resolved by the experiment runner
/// (reported so front ends can print/check the drawn assignment without
/// re-deriving the RNG streams).
struct NodeClassSummary {
  std::string name;
  std::size_t nodes = 0;
  double cpu_speed = 1.0;
  std::size_t map_slots = 0;
  std::size_t reduce_slots = 0;
  double link_scale = 1.0;
};

struct ExperimentResult {
  std::string scheduler_name;
  std::vector<mapreduce::TaskRecord> task_records;
  std::vector<mapreduce::JobRecord> job_records;
  mapreduce::UtilizationSummary utilization;
  Seconds makespan = 0.0;  ///< last job completion time
  std::size_t events_processed = 0;
  bool completed = false;  ///< all jobs finished before max_sim_time
  /// Final values of every engine/scheduler metric of this run. Counter
  /// and histogram values are deterministic per (config, seed) — only the
  /// wall-clock timers vary between hosts/runs.
  telemetry::Snapshot telemetry;
  /// Sampled time-series (empty unless config.sample_period > 0).
  telemetry::TimeSeries samples;
  /// Admission ledger: one entry per arrival routed through the
  /// controller (empty when enable_admission = false).
  std::vector<control::ArrivalOutcome> admission_outcomes;
  std::string admission_policy;  ///< policy name, "" without a controller
  std::size_t jobs_rejected = 0;
  std::size_t jobs_aborted = 0;
  /// Per-class cluster composition (empty unless config.hetero enabled).
  std::vector<NodeClassSummary> node_classes;
  /// Causal trace (empty unless config.enable_tracing / causal_trace_path
  /// is set): per-job span trees, every placement decision record, the
  /// per-job critical-path blames and their per-run aggregate.
  bool tracing_enabled = false;
  std::vector<trace::JobTrace> job_traces;
  std::vector<trace::PlacementDecisionRecord> decisions;
  std::vector<trace::JobBlame> job_blames;
  trace::CriticalPathSummary critical_path;
};

/// Run one experiment synchronously.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Run one experiment with arrivals pulled incrementally from `source`
/// instead of pre-materialised config.jobs (which must be empty). Each
/// arrival is materialised into a JobSpec and submitted `lookahead`
/// sim-seconds before its arrival time, so only one pending arrival is
/// buffered at any moment — million-job traces never sit in memory.
///
/// Byte-identity contract: for a source yielding exactly the arrivals the
/// buffered path would place in config.jobs/submit_times, the result is
/// byte-identical to run_experiment (the equivalence tests pin this), as
/// long as arrival times don't collide with unrelated simulation events
/// scheduled more than `lookahead` ahead — generated continuous-time
/// arrivals never do.
[[nodiscard]] ExperimentResult run_experiment_streamed(
    const ExperimentConfig& config, workload::ArrivalSource& source,
    Seconds lookahead = 30.0);

/// Run several independent experiments concurrently (one thread each,
/// capped at the hardware concurrency). Results are in input order.
[[nodiscard]] std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentConfig> configs);

/// Convenience: the paper's standard setup (60 single-rack nodes, 4+2
/// slots, replication 2, P_min 0.4) with the given jobs and scheduler.
[[nodiscard]] ExperimentConfig paper_config(
    std::vector<workload::JobDescription> jobs, SchedulerKind scheduler,
    std::uint64_t seed = 42);

}  // namespace mrs::driver
