#include "mrs/driver/stream_experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "mrs/common/check.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/striped.hpp"

namespace mrs::driver {

namespace {

/// Shared steady-state post-processing of a finished run.
void finish_stream_result(const StreamConfig& cfg, StreamResult& result) {
  const metrics::Window window{cfg.warmup, cfg.arrivals.duration};
  // Slot totals of the cluster as built: node classes may give nodes
  // their own slot counts, so cfg.base.node alone does not determine them.
  const auto& util = result.run.utilization;
  result.steady = metrics::steady_state_summary(
      result.run.job_records, result.run.task_records, window,
      util.total_map_slots, util.total_reduce_slots,
      result.run.admission_outcomes);
}

/// Keep the failure injector armed over the whole arrival horizon: with
/// stream jobs, "all jobs complete" is merely a quiet gap until the last
/// arrival has entered the system.
ExperimentConfig stream_base_config(const StreamConfig& cfg) {
  ExperimentConfig run_cfg = cfg.base;
  run_cfg.jobs.clear();
  run_cfg.submit_times.clear();
  run_cfg.failures.arm_horizon =
      std::max(cfg.base.failures.arm_horizon, cfg.arrivals.duration);
  run_cfg.net_faults.arm_horizon =
      std::max(cfg.base.net_faults.arm_horizon, cfg.arrivals.duration);
  return run_cfg;
}

}  // namespace

std::vector<workload::Arrival> stream_arrivals(const StreamConfig& cfg) {
  // Split off the root with a fixed, scheduler-independent label: paired
  // runs differing only in the scheduler see byte-identical streams, and
  // the label keeps this stream uncorrelated with the placement / cluster
  // / engine streams run_experiment derives from the same root.
  const Rng root(cfg.base.seed);
  return workload::generate_arrivals(cfg.arrivals, root.split("arrivals"));
}

StreamResult run_stream_experiment(const StreamConfig& cfg) {
  MRS_REQUIRE(cfg.warmup >= 0.0 && cfg.warmup < cfg.arrivals.duration);
  if (cfg.stream_trace) {
    MRS_REQUIRE(cfg.arrivals.process == workload::ArrivalProcess::kTrace);
    workload::TraceStreamReader reader(cfg.arrivals.trace_path,
                                       cfg.arrivals.duration);
    return run_stream_experiment(cfg, reader);
  }

  StreamResult result;
  result.arrivals = stream_arrivals(cfg);
  if (result.arrivals.empty()) {
    // A short, slow stream can draw no job at all: a property of the
    // configuration, reported like any other rejected input.
    throw std::runtime_error(
        strf("the arrival stream drew no jobs in %.17g s; raise the rate "
             "or the duration",
             cfg.arrivals.duration));
  }

  ExperimentConfig run_cfg = stream_base_config(cfg);
  run_cfg.jobs.reserve(result.arrivals.size());
  run_cfg.submit_times.reserve(result.arrivals.size());
  for (const auto& a : result.arrivals) {
    run_cfg.jobs.push_back(a.job);
    run_cfg.submit_times.push_back(a.time);
  }
  result.run = run_experiment(run_cfg);
  finish_stream_result(cfg, result);
  return result;
}

std::vector<StreamResult> run_stream_experiments(
    std::span<const StreamConfig> configs) {
  std::vector<StreamResult> results(configs.size());
  run_striped(configs.size(), [&](std::size_t i) {
    results[i] = run_stream_experiment(configs[i]);
  });
  return results;
}

StreamResult run_stream_experiment(const StreamConfig& cfg,
                                   workload::ArrivalSource& source) {
  MRS_REQUIRE(cfg.warmup >= 0.0 && cfg.warmup < cfg.arrivals.duration);
  StreamResult result;
  const ExperimentConfig run_cfg = stream_base_config(cfg);
  result.run = run_experiment_streamed(run_cfg, source);
  finish_stream_result(cfg, result);
  return result;
}

}  // namespace mrs::driver
