// The paper's evaluation (Table II-III, Figs. 3-7, the Sec. III P_min
// selection), the ablations and extras, and the open-loop stream studies,
// from one table with a row per figure or study. Each row prints the
// reproduced rows/series (ASCII CDFs for figures) and writes
// bench_out/<row>.csv.
//
//   bench_paper                      every row, in table order
//   bench_paper fig4_jct_cdf ...     just the named rows
//   bench_paper --help               the row list
//
// Figs. 4-7, Table III and the running-tasks timeline post-process the same
// nine runs: the Wordcount / Terasort / Grep batches of Table II, each under
// the Fair, Coupling and Probabilistic schedulers. They are simulated at
// most once per invocation, on first use. Sweeping rows run their configs
// concurrently through driver::run_experiments (stream rows through
// driver::run_stream_experiments); results are deterministic per config,
// so the output does not depend on the thread count. A stream study's
// `_quick` row is its full row over a shorter horizon (the CI smoke).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "mrs/common/csv.hpp"
#include "mrs/common/stats.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/common/table.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "mrs/metrics/summary.hpp"
#include "mrs/workload/trace_gen.hpp"

namespace {

using namespace mrs;
using driver::SchedulerKind;

// --- shared scaffolding -----------------------------------------------------

constexpr const char* kOutputDir = "bench_out";
constexpr std::uint64_t kSeed = 42;

/// The paper's three schedulers, in report order.
const std::vector<SchedulerKind> kSchedulers = {
    SchedulerKind::kFair, SchedulerKind::kCoupling, SchedulerKind::kPna};

/// What a stream row measures over; the paper rows ignore it. A `_quick`
/// row differs from its full twin only here.
struct Horizon {
  Seconds duration = 0.0;          ///< arrival horizon
  Seconds warmup = 0.0;            ///< cut from the steady-state window
  std::vector<double> rates = {};  ///< trace_replay's rate grid (jobs/h)
  bool scale_demo = false;         ///< trace_replay's >=100k-job demo
};

double mean_jct(const driver::ExperimentResult& r) {
  RunningStats jct;
  for (const auto& j : r.job_records) jct.add(j.completion_time());
  return jct.mean();
}

/// The paper's setup (seed 42) for `jobs` under `kind`, stopped at
/// `max_sim_time`: sweeps bound their runs so a configuration that cannot
/// finish (past the P_min cliff, say) reports "DNF" instead of idling on.
driver::ExperimentConfig sweep_config(
    std::vector<workload::JobDescription> jobs, SchedulerKind kind,
    Seconds max_sim_time) {
  auto cfg = driver::paper_config(std::move(jobs), kind, kSeed);
  cfg.max_sim_time = max_sim_time;
  return cfg;
}

/// Table II catalog entries by index (the ablations' small mixed batches).
std::vector<workload::JobDescription> catalog_jobs(
    std::initializer_list<std::size_t> indices) {
  std::vector<workload::JobDescription> jobs;
  for (std::size_t i : indices) jobs.push_back(workload::table2_catalog()[i]);
  return jobs;
}

/// The 30 Table II jobs materialised on the paper's 60-node rack.
std::vector<mapreduce::JobSpec> table2_specs(
    dfs::BlockStore& store, const workload::WorkloadConfig& wcfg) {
  const auto topo = net::make_single_rack(60);
  dfs::BlockPlacer placer(&topo, Rng(kSeed).split("placement"));
  return workload::make_batch(workload::table2_catalog(), store, placer,
                              wcfg);
}

std::vector<std::pair<std::string, const Cdf*>> scheduler_series(
    const std::map<SchedulerKind, Cdf>& cdfs) {
  std::vector<std::pair<std::string, const Cdf*>> series;
  for (auto kind : kSchedulers) {
    series.emplace_back(driver::to_string(kind), &cdfs.at(kind));
  }
  return series;
}

// --- the nine paper runs ----------------------------------------------------

struct PaperRuns {
  /// Per scheduler, the three batches merged: the paper runs them
  /// separately and reports distributions over all 30 jobs.
  std::map<SchedulerKind, driver::ExperimentResult> merged;
  /// Per scheduler, the Wordcount batch alone (timelines of separate
  /// batches would overlay unrelated runs).
  std::map<SchedulerKind, driver::ExperimentResult> wordcount;
};

/// Merge b's records into a (job ids are remapped to stay unique).
void merge_into(driver::ExperimentResult& a,
                const driver::ExperimentResult& b) {
  const std::size_t job_offset =
      a.job_records.empty()
          ? 0
          : a.job_records.back().id.value() + 1;
  for (auto j : b.job_records) {
    j.id = JobId(j.id.value() + job_offset);
    a.job_records.push_back(std::move(j));
  }
  for (auto t : b.task_records) {
    t.job = JobId(t.job.value() + job_offset);
    a.task_records.push_back(std::move(t));
  }
  a.makespan = std::max(a.makespan, b.makespan);
  a.events_processed += b.events_processed;
  a.completed = a.completed && b.completed;
  a.utilization.map_slot_seconds_busy +=
      b.utilization.map_slot_seconds_busy;
  a.utilization.reduce_slot_seconds_busy +=
      b.utilization.reduce_slot_seconds_busy;
  a.utilization.span += b.utilization.span;
  a.utilization.total_map_slots = b.utilization.total_map_slots;
  a.utilization.total_reduce_slots = b.utilization.total_reduce_slots;
}

PaperRuns simulate_paper_runs() {
  const std::vector<mapreduce::JobKind> batches = {
      mapreduce::JobKind::kWordcount, mapreduce::JobKind::kTerasort,
      mapreduce::JobKind::kGrep};
  std::vector<driver::ExperimentConfig> cfgs;
  for (auto sched : kSchedulers) {
    for (auto batch : batches) {
      cfgs.push_back(driver::paper_config(workload::table2_batch(batch),
                                          sched, kSeed));
    }
  }
  const auto results = driver::run_experiments(cfgs);

  PaperRuns runs;
  auto r = results.begin();
  for (auto sched : kSchedulers) {
    driver::ExperimentResult merged;
    merged.completed = true;
    merged.scheduler_name = r->scheduler_name;
    for (auto batch : batches) {
      if (batch == mapreduce::JobKind::kWordcount) {
        runs.wordcount.emplace(sched, *r);
      }
      merge_into(merged, *r++);
    }
    runs.merged.emplace(sched, std::move(merged));
  }
  return runs;
}

const PaperRuns& paper_runs() {
  static const PaperRuns runs = simulate_paper_runs();
  return runs;
}

// --- rows -------------------------------------------------------------------

// Table II: the 30-job workload (10 Wordcount, 10 Terasort, 10 Grep;
// 10-100 GB) with map/reduce task counts, plus the derived effective input
// and expected shuffle volume of our materialisation.
void table2_workload(CsvWriter& csv, const Horizon&) {
  dfs::BlockStore store(60);
  workload::WorkloadConfig wcfg;
  const auto specs = table2_specs(store, wcfg);

  AsciiTable table({"JobID", "Job", "Map (#)", "Reduce (#)",
                    "Input (GiB)", "Shuffle est. (GiB)"});
  for (std::size_t c = 2; c <= 5; ++c) table.set_right_aligned(c);

  const auto& catalog = workload::table2_catalog();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const double input_gib = units::to_GiB(spec.total_input());
    const double shuffle_gib =
        units::to_GiB(spec.total_input() * spec.map_selectivity);
    table.add_row({catalog[i].job_id, spec.name,
                   strf("%zu", spec.map_count()),
                   strf("%zu", spec.reduce_count),
                   strf("%.1f", input_gib), strf("%.1f", shuffle_gib)});
    csv.row({catalog[i].job_id, spec.name, strf("%zu", spec.map_count()),
             strf("%zu", spec.reduce_count), strf("%.3f", input_gib),
             strf("%.3f", shuffle_gib)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Map/reduce counts are the paper's exact Table II values; effective\n"
      "input is map_count x 128 MiB blocks (the authors' file sizes were\n"
      "similarly larger than the nominal label). CSV: %s\n",
      csv.path().c_str());
  std::printf("Total blocks in DFS: %zu, replication %zu\n",
              store.block_count(), wcfg.replication);
}

// Fig. 3: CDF of input data size and shuffle data size over the 30 Table II
// jobs, plus the paper's headline fractions ("about 60 percent of jobs have
// more than 50GB shuffle data size, and about 20 percent ... more than
// 100GB; about 20 percent ... less than 10GB").
void fig3_datasize_cdf(CsvWriter& csv, const Horizon&) {
  dfs::BlockStore store(60);
  const auto specs = table2_specs(store, workload::WorkloadConfig{});

  Cdf input_cdf, shuffle_cdf;
  for (const auto& spec : specs) {
    input_cdf.add(units::to_GiB(spec.total_input()));
    shuffle_cdf.add(units::to_GiB(spec.total_input() * spec.map_selectivity));
  }

  const std::vector<std::pair<std::string, const Cdf*>> series = {
      {"input", &input_cdf}, {"shuffle", &shuffle_cdf}};
  std::printf("%s\n",
              render_cdf_ascii(series, 72, 18, "data size (GiB)").c_str());

  const double over50 = 1.0 - shuffle_cdf.fraction_at_or_below(50.0);
  const double over100 = 1.0 - shuffle_cdf.fraction_at_or_below(100.0);
  const double under10 = shuffle_cdf.fraction_at_or_below(10.0);
  std::printf("shuffle > 50 GiB: %4.1f%% of jobs   (paper: ~60%%)\n",
              100.0 * over50);
  std::printf("shuffle > 100 GiB: %4.1f%% of jobs  (paper: ~20%%)\n",
              100.0 * over100);
  std::printf("shuffle < 10 GiB: %4.1f%% of jobs   (paper: ~20%%)\n",
              100.0 * under10);

  for (const auto& p : input_cdf.points()) {
    csv.row({"input", strf("%.3f", p.value), strf("%.4f", p.fraction)});
  }
  for (const auto& p : shuffle_cdf.points()) {
    csv.row({"shuffle", strf("%.3f", p.value), strf("%.4f", p.fraction)});
  }
}

// Fig. 4: CDF of job completion time over the 30 Table II jobs under the
// Fair, Coupling and Probabilistic schedulers (replication factor 2), plus
// the cluster-utilization comparison the paper discusses.
void fig4_jct_cdf(CsvWriter& csv, const Horizon&) {
  const auto& runs = paper_runs();

  std::map<SchedulerKind, Cdf> cdfs;
  for (const auto& [kind, result] : runs.merged) {
    cdfs.emplace(kind, metrics::job_completion_cdf(result.job_records));
  }
  std::printf("%s\n",
              render_cdf_ascii(scheduler_series(cdfs), 72, 18,
                               "job completion time (sim seconds)")
                  .c_str());

  std::printf("%-14s %10s %10s %10s %10s %9s %9s\n", "scheduler", "mean",
              "p50", "p90", "makespan", "map-util", "red-util");
  for (auto kind : kSchedulers) {
    const auto& r = runs.merged.at(kind);
    std::printf("%-14s %9.1fs %9.1fs %9.1fs %9.1fs %8.1f%% %8.1f%%\n",
                r.scheduler_name.c_str(), mean_jct(r),
                cdfs.at(kind).value_at(0.5), cdfs.at(kind).value_at(0.9),
                r.makespan, 100.0 * r.utilization.map_utilization(),
                100.0 * r.utilization.reduce_utilization());
  }
  std::printf(
      "\nPaper shape: the probabilistic scheduler's CDF lies left of the\n"
      "baselines. See EXPERIMENTS.md for the measured-vs-paper analysis.\n");

  for (auto kind : kSchedulers) {
    for (const auto& p : cdfs.at(kind).points()) {
      csv.row({driver::to_string(kind), strf("%.3f", p.value),
               strf("%.4f", p.fraction)});
    }
  }
}

// Fig. 5: CDF of the per-job completion-time reduction the probabilistic
// scheduler achieves against Coupling and against Fair
// ((baseline - probabilistic) / baseline), over paired runs of the same
// 30-job workload (identical seeds, identical block placement and
// intermediate data).
void fig5_reduction(CsvWriter& csv, const Horizon&) {
  const auto& runs = paper_runs();
  const auto& pna = runs.merged.at(SchedulerKind::kPna);
  const auto& coupling = runs.merged.at(SchedulerKind::kCoupling);
  const auto& fair = runs.merged.at(SchedulerKind::kFair);

  const auto vs_coupling =
      metrics::completion_reduction(pna.job_records, coupling.job_records);
  const auto vs_fair =
      metrics::completion_reduction(pna.job_records, fair.job_records);

  Cdf c1 = vs_coupling.cdf, c2 = vs_fair.cdf;
  const std::vector<std::pair<std::string, const Cdf*>> series = {
      {"vs-coupling", &c1}, {"vs-fair", &c2}};
  std::printf(
      "%s\n",
      render_cdf_ascii(series, 72, 18, "reduction fraction").c_str());

  std::printf("PNA vs Coupling: mean reduction %+6.1f%% over %zu jobs "
              "(paper: +17%%)\n",
              100.0 * vs_coupling.mean, vs_coupling.pairs);
  std::printf("PNA vs Fair:     mean reduction %+6.1f%% over %zu jobs "
              "(paper: +46%%)\n",
              100.0 * vs_fair.mean, vs_fair.pairs);
  std::printf("jobs improved vs Coupling: %4.1f%% | vs Fair: %4.1f%%\n",
              100.0 * (1.0 - c1.fraction_at_or_below(0.0)),
              100.0 * (1.0 - c2.fraction_at_or_below(0.0)));

  // The quantity the scheduler actually optimises: realized transmission
  // cost of its placements (bytes x distance).
  const double pna_cost = metrics::mean_placement_cost(
      pna.task_records, metrics::TaskFilter::kReducesOnly);
  const double coupling_cost = metrics::mean_placement_cost(
      coupling.task_records, metrics::TaskFilter::kReducesOnly);
  const double fair_cost = metrics::mean_placement_cost(
      fair.task_records, metrics::TaskFilter::kReducesOnly);
  std::printf(
      "\nmean reduce transmission cost: pna %.3g, coupling %.3g (%+.1f%%), "
      "fair %.3g (%+.1f%%)\n",
      pna_cost, coupling_cost,
      100.0 * (coupling_cost - pna_cost) / coupling_cost, fair_cost,
      100.0 * (fair_cost - pna_cost) / fair_cost);

  for (const auto& p : c1.points()) {
    csv.row({"coupling", strf("%.4f", p.value), strf("%.4f", p.fraction)});
  }
  for (const auto& p : c2.points()) {
    csv.row({"fair", strf("%.4f", p.value), strf("%.4f", p.fraction)});
  }
}

// Fig. 6: CDF of map-task (a) and reduce-task (b) running times under the
// three schedulers, replication factor 2.
void fig6_task_cdf(CsvWriter& csv, const Horizon&) {
  const auto& runs = paper_runs();

  for (const bool maps : {true, false}) {
    const auto filter = maps ? metrics::TaskFilter::kMapsOnly
                             : metrics::TaskFilter::kReducesOnly;
    std::map<SchedulerKind, Cdf> cdfs;
    for (const auto& [kind, result] : runs.merged) {
      cdfs.emplace(kind, metrics::task_time_cdf(result.task_records, filter));
    }
    std::printf("\n--- Fig. 6(%s): %s tasks ---\n", maps ? "a" : "b",
                maps ? "map" : "reduce");
    std::printf("%s\n", render_cdf_ascii(scheduler_series(cdfs), 72, 16,
                                         "task running time (sim seconds)")
                            .c_str());
    std::printf("%-14s %9s %9s %9s %9s\n", "scheduler", "p50", "p90", "p99",
                "max");
    for (auto kind : kSchedulers) {
      const Cdf& c = cdfs.at(kind);
      std::printf("%-14s %8.1fs %8.1fs %8.1fs %8.1fs\n",
                  driver::to_string(kind), c.value_at(0.5), c.value_at(0.9),
                  c.value_at(0.99), c.value_at(1.0));
    }
  }
  std::printf(
      "\nPaper shape: all probabilistic-scheduler tasks finish within a\n"
      "bounded time (493 s maps / 574 s reduces) while the baselines have\n"
      "heavier tails; compare the max column.\n");

  for (const bool maps : {true, false}) {
    const auto filter = maps ? metrics::TaskFilter::kMapsOnly
                             : metrics::TaskFilter::kReducesOnly;
    for (auto kind : kSchedulers) {
      const Cdf c = metrics::task_time_cdf(
          runs.merged.at(kind).task_records, filter);
      for (const auto& p : c.resampled(200)) {
        csv.row({driver::to_string(kind), maps ? "map" : "reduce",
                 strf("%.3f", p.value), strf("%.4f", p.fraction)});
      }
    }
  }
}

// Table III: percentage of node-local / rack-local / remote tasks (maps and
// reduces combined, per the paper's definition in Sec. III-C) under the
// three schedulers.
void table3_locality(CsvWriter& csv, const Horizon&) {
  const auto& runs = paper_runs();

  AsciiTable table({"", "Probabilistic", "Coupling", "Fair"});
  std::map<SchedulerKind, metrics::LocalitySummary> all, maps_only,
      reduces_only;
  for (const auto& [kind, result] : runs.merged) {
    all[kind] = metrics::locality_summary(result.task_records,
                                          metrics::TaskFilter::kAll);
    maps_only[kind] = metrics::locality_summary(
        result.task_records, metrics::TaskFilter::kMapsOnly);
    reduces_only[kind] = metrics::locality_summary(
        result.task_records, metrics::TaskFilter::kReducesOnly);
  }

  auto row = [&](const char* label, auto getter) {
    table.add_row({label, strf("%.2f", getter(all[SchedulerKind::kPna])),
                   strf("%.2f", getter(all[SchedulerKind::kCoupling])),
                   strf("%.2f", getter(all[SchedulerKind::kFair]))});
  };
  row("% of local node tasks",
      [](const metrics::LocalitySummary& s) { return s.node_local_pct; });
  row("% of local rack tasks",
      [](const metrics::LocalitySummary& s) { return s.rack_local_pct; });
  row("% of remote tasks",
      [](const metrics::LocalitySummary& s) { return s.remote_pct; });
  std::printf("%s", table.render().c_str());
  std::printf("paper:                 89.84 / 88.30 / 85.59 local; "
              "0 remote (single rack)\n\n");

  std::printf("breakdown by task type (%% node-local):\n");
  std::printf("%-14s %10s %10s\n", "scheduler", "maps", "reduces");
  for (auto kind : kSchedulers) {
    std::printf("%-14s %9.2f%% %9.2f%%\n", driver::to_string(kind),
                maps_only[kind].node_local_pct,
                reduces_only[kind].node_local_pct);
  }

  for (auto kind : kSchedulers) {
    csv.row({driver::to_string(kind), "all",
             strf("%.3f", all[kind].node_local_pct),
             strf("%.3f", all[kind].rack_local_pct),
             strf("%.3f", all[kind].remote_pct)});
    csv.row({driver::to_string(kind), "maps",
             strf("%.3f", maps_only[kind].node_local_pct),
             strf("%.3f", maps_only[kind].rack_local_pct),
             strf("%.3f", maps_only[kind].remote_pct)});
    csv.row({driver::to_string(kind), "reduces",
             strf("%.3f", reduces_only[kind].node_local_pct),
             strf("%.3f", reduces_only[kind].rack_local_pct),
             strf("%.3f", reduces_only[kind].remote_pct)});
  }
}

// Fig. 7: percentage of map tasks with local data as a function of the
// input data size (10-100 GB), per scheduler. Each point averages the
// Wordcount, Terasort and Grep jobs of that size.
void fig7_locality_vs_size(CsvWriter& csv, const Horizon&) {
  const auto& runs = paper_runs();
  const auto& catalog = workload::table2_catalog();

  // nominal GB -> scheduler -> (local maps, total maps)
  std::map<double,
           std::map<SchedulerKind, std::pair<std::size_t, std::size_t>>>
      buckets;
  for (const auto& [kind, result] : runs.merged) {
    // Job names encode the nominal size; match through the catalog.
    std::map<std::string, double> size_of;
    for (const auto& d : catalog) size_of[d.name] = d.nominal_gb;
    std::map<std::size_t, double> job_size;  // JobId -> GB
    for (const auto& j : result.job_records) {
      job_size[j.id.value()] = size_of.at(j.name);
    }
    for (const auto& t : result.task_records) {
      if (!t.is_map) continue;
      auto& [local, total] = buckets[job_size.at(t.job.value())][kind];
      ++total;
      if (t.locality == mapreduce::Locality::kNodeLocal) ++local;
    }
  }

  AsciiTable table({"Input (GB)", "Probabilistic", "Coupling", "Fair"});
  for (std::size_t c = 0; c <= 3; ++c) table.set_right_aligned(c);
  for (const auto& [gb, per_sched] : buckets) {
    auto pct = [&](SchedulerKind k) {
      const auto it = per_sched.find(k);
      if (it == per_sched.end() || it->second.second == 0) return 0.0;
      return 100.0 * double(it->second.first) / double(it->second.second);
    };
    table.add_row({strf("%.0f", gb), strf("%.1f", pct(SchedulerKind::kPna)),
                   strf("%.1f", pct(SchedulerKind::kCoupling)),
                   strf("%.1f", pct(SchedulerKind::kFair))});
    for (auto kind : kSchedulers) {
      csv.row({strf("%.0f", gb), driver::to_string(kind),
               strf("%.2f", pct(kind))});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Paper shape: the probabilistic scheduler sustains the highest map\n"
      "locality across input sizes, coupling second, fair third. See\n"
      "EXPERIMENTS.md for the delay-scheduling caveat on the Fair column.\n");
}

// P_min selection (Sec. III): the paper runs 10 Wordcount jobs repeatedly
// with different P_min values and picks "the highest P_min value at the
// time when all jobs finished successfully". This row reproduces that
// methodology and exposes the completion cliff at P_min = 1 - 1/e ~ 0.632
// (above it, uniform-cost reduce offers are always rejected and jobs never
// finish).
void pmin_sweep(CsvWriter& csv, const Horizon&) {
  const auto jobs = workload::table2_batch(mapreduce::JobKind::kWordcount);
  const std::vector<double> sweep = {0.0, 0.1, 0.2, 0.3, 0.4,
                                     0.5, 0.6, 0.63, 0.7};
  std::vector<driver::ExperimentConfig> cfgs;
  for (double p_min : sweep) {
    cfgs.push_back(sweep_config(jobs, SchedulerKind::kPna, 20000.0));
    cfgs.back().pna.p_min = p_min;
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"P_min", "completed", "mean JCT (s)", "makespan (s)",
                    "map skips", "reduce skips"});
  for (std::size_t c = 0; c <= 5; ++c) table.set_right_aligned(c);
  double best_pmin = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double p_min = sweep[i];
    const auto& r = results[i];
    const double jct = mean_jct(r);
    table.add_row({strf("%.2f", p_min), r.completed ? "yes" : "NO",
                   r.completed ? strf("%.1f", jct) : "-",
                   r.completed ? strf("%.1f", r.makespan) : "-", "", ""});
    csv.row({strf("%.2f", p_min), r.completed ? "1" : "0",
             strf("%.2f", jct), strf("%.2f", r.makespan)});
    if (r.completed) best_pmin = std::max(best_pmin, p_min);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Highest P_min with all jobs completing: %.2f (the paper selected\n"
      "0.4 on its testbed with the same methodology). The cliff sits at\n"
      "1 - 1/e ~ 0.632: in a uniform single rack every non-local offer has\n"
      "P ~ 0.632, so any higher threshold rejects them all.\n",
      best_pmin);
}

// Ablation A (the paper's future work, Sec. V): alternative probability
// models for Eq. 4/5. The paper notes "the optimality of this [exponential]
// model is not known" and defers exploring other models; this row runs
// them on a mixed batch: exponential (the paper), linear, sigmoid, step,
// and greedy (deterministic min-cost, i.e. no probabilistic relaxation at
// all).
void ablation_probability_model(CsvWriter& csv, const Horizon&) {
  using core::ProbabilityModel;
  // Mixed batch: small/medium jobs of each application.
  const auto jobs = catalog_jobs({0, 2, 10, 12, 20, 22});
  const std::vector<ProbabilityModel> models = {
      ProbabilityModel::kExponential, ProbabilityModel::kLinear,
      ProbabilityModel::kSigmoid, ProbabilityModel::kStep,
      ProbabilityModel::kGreedy};
  std::vector<driver::ExperimentConfig> cfgs;
  for (auto model : models) {
    auto cfg = sweep_config(jobs, SchedulerKind::kPna, 50000.0);
    cfg.pna.model = model;
    // The step model needs a threshold below its own plateau.
    if (model == ProbabilityModel::kStep) cfg.pna.p_min = 0.0;
    if (model == ProbabilityModel::kGreedy) cfg.pna.p_min = 0.0;
    cfgs.push_back(std::move(cfg));
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"model", "mean JCT (s)", "makespan (s)",
                    "map local %", "reduce cost"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_right_aligned(c);
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& r = results[i];
    const double jct = mean_jct(r);
    const auto loc = metrics::locality_summary(
        r.task_records, metrics::TaskFilter::kMapsOnly);
    const double rcost = metrics::mean_placement_cost(
        r.task_records, metrics::TaskFilter::kReducesOnly);
    table.add_row({to_string(models[i]),
                   r.completed ? strf("%.1f", jct) : "DNF",
                   strf("%.1f", r.makespan),
                   strf("%.1f", loc.node_local_pct), strf("%.3g", rcost)});
    csv.row({to_string(models[i]), strf("%.2f", jct),
             strf("%.2f", r.makespan), strf("%.2f", loc.node_local_pct),
             strf("%.6g", rcost)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "greedy = always place the min-cost candidate (no Bernoulli draw):\n"
      "it maximises slot usage but herds tasks onto currently-cheap nodes;\n"
      "the probabilistic models trade a few skipped heartbeats for spread.\n");
}

// Ablation B: the intermediate-data size estimator (Eq. 3). Compares
//   current   - use in-progress sizes as-is (Coupling Scheduler's choice,
//               the strawman of Sec. II-B-2's worked example),
//   projected - the paper's Eq. 3 (A_jf * B_j / d_read),
//   oracle    - ground truth (not realisable; upper bound),
// under increasingly non-linear map emission (alpha), where early
// in-progress sizes are most misleading.
void ablation_estimator(CsvWriter& csv, const Horizon&) {
  using core::EstimatorMode;
  // Shuffle-heavy jobs so reduce placement (and hence estimation) matters.
  const auto jobs = catalog_jobs({0, 2, 10, 12});  // WC+TS 10/30 GB
  const std::vector<double> alphas = {1.0, 2.0, 3.0};
  const std::vector<EstimatorMode> modes = {EstimatorMode::kCurrent,
                                            EstimatorMode::kProjected,
                                            EstimatorMode::kOracle};
  std::vector<driver::ExperimentConfig> cfgs;
  for (double alpha : alphas) {
    for (auto mode : modes) {
      auto cfg = sweep_config(jobs, SchedulerKind::kPna, 50000.0);
      cfg.pna.estimator = mode;
      // Early reduce launches make estimation quality matter most.
      cfg.engine.reduce_slowstart = 0.02;
      // The emission nonlinearity applies to every job profile.
      cfg.emit_nonlinearity_override = alpha;
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"alpha", "estimator", "mean JCT (s)", "reduce cost"});
  for (std::size_t c = 2; c <= 3; ++c) table.set_right_aligned(c);
  auto r = results.begin();
  for (double alpha : alphas) {
    for (auto mode : modes) {
      const double jct = mean_jct(*r);
      const double rcost = metrics::mean_placement_cost(
          r->task_records, metrics::TaskFilter::kReducesOnly);
      table.add_row({strf("%.1f", alpha), to_string(mode),
                     strf("%.1f", jct), strf("%.3g", rcost)});
      csv.row({strf("%.1f", alpha), to_string(mode), strf("%.2f", jct),
               strf("%.6g", rcost)});
      ++r;
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Expected shape: at alpha=1 projected == oracle (Eq. 3 is exact for\n"
      "linear emitters); as alpha grows, 'current' increasingly misranks\n"
      "placements (the Sec. II-B-2 example) while 'projected' degrades\n"
      "more gracefully.\n");
}

// Ablation C (Sec. II-B-3 and the paper's future work): what the scheduler
// uses as "distance" h_ab — static hop counts, the paper's inverse
// path-transmission-rate variant, the per-link weighted form, or the live
// load-aware monitor — evaluated in the regime the paper motivates: data
// concentrated on a subset of nodes (NAS/SAN-like skewed placement) under
// persistent background cross-traffic, plus a multi-rack variant.
void ablation_netcond(CsvWriter& csv, const Horizon&) {
  using driver::DistanceMode;
  const auto jobs = catalog_jobs({0, 10, 20, 2, 12, 22});
  const std::vector<std::pair<DistanceMode, const char*>> modes = {
      {DistanceMode::kHops, "hops"},
      {DistanceMode::kInverseRate, "inverse-rate"},
      {DistanceMode::kWeightedPerLink, "weighted-links"},
      {DistanceMode::kLoadAware, "load-aware"},
  };
  const std::vector<const char*> scenarios = {"single-rack+skew", "4-racks"};
  std::vector<driver::ExperimentConfig> cfgs;
  for (const char* scenario : scenarios) {
    for (const auto& mode : modes) {
      auto cfg = sweep_config(jobs, SchedulerKind::kPna, 100000.0);
      cfg.distance_mode = mode.first;
      if (scenario == scenarios[0]) {
        // NAS/SAN-like storage: all replicas on a quarter of the nodes.
        cfg.workload.placement = dfs::PlacementPolicy::kSkewed;
      } else {
        cfg.racks = 4;  // cross-rack distances now differ (2 vs 4 hops)
      }
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"scenario", "distance", "mean JCT (s)", "makespan (s)",
                    "reduce cost"});
  for (std::size_t c = 2; c <= 4; ++c) table.set_right_aligned(c);
  auto r = results.begin();
  for (const char* scenario : scenarios) {
    for (const auto& [mode, name] : modes) {
      const double jct = mean_jct(*r);
      const double rcost = metrics::mean_placement_cost(
          r->task_records, metrics::TaskFilter::kReducesOnly);
      table.add_row({scenario, name,
                     r->completed ? strf("%.1f", jct) : "DNF",
                     strf("%.1f", r->makespan), strf("%.3g", rcost)});
      csv.row({scenario, name, strf("%.2f", jct),
               strf("%.2f", r->makespan), strf("%.6g", rcost)});
      ++r;
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Note: reduce-cost columns are not comparable across distance modes\n"
      "(each mode defines its own cost scale); compare JCT/makespan.\n");
}

// Extended baselines: the paper evaluates against Fair and Coupling; its
// related-work section also discusses FIFO, LARTS [4] and Quincy [20].
// This row runs all six schedulers on one mixed batch.
void extended_baselines(CsvWriter& csv, const Horizon&) {
  const auto jobs = catalog_jobs({0, 2, 10, 12, 20, 22});
  std::vector<driver::ExperimentConfig> cfgs;
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kFair,
                    SchedulerKind::kCoupling, SchedulerKind::kLarts,
                    SchedulerKind::kMinCost, SchedulerKind::kPna}) {
    cfgs.push_back(driver::paper_config(jobs, kind, kSeed));
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"scheduler", "mean JCT (s)", "p90 JCT (s)",
                    "makespan (s)", "local %", "reduce cost"});
  for (std::size_t c = 1; c <= 5; ++c) table.set_right_aligned(c);
  for (const auto& r : results) {
    const double jct = mean_jct(r);
    const Cdf cdf = metrics::job_completion_cdf(r.job_records);
    const auto loc = metrics::locality_summary(r.task_records,
                                               metrics::TaskFilter::kAll);
    const double rcost = metrics::mean_placement_cost(
        r.task_records, metrics::TaskFilter::kReducesOnly);
    table.add_row({r.scheduler_name, strf("%.1f", jct),
                   strf("%.1f", cdf.value_at(0.9)),
                   strf("%.1f", r.makespan),
                   strf("%.1f", loc.node_local_pct), strf("%.3g", rcost)});
    csv.row({r.scheduler_name, strf("%.2f", jct),
             strf("%.2f", cdf.value_at(0.9)), strf("%.2f", r.makespan),
             strf("%.2f", loc.node_local_pct), strf("%.6g", rcost)});
  }
  std::printf("%s", table.render().c_str());
}

// Fault tolerance (Ablation D): the task-straggling regime the paper's
// abstract motivates. Runs the mixed batch under (a) a clean cluster,
// (b) stragglers, (c) stragglers + speculative execution, and (d) random
// TaskTracker failures, for the Fair and Probabilistic schedulers.
void fault_tolerance(CsvWriter& csv, const Horizon&) {
  const auto jobs = catalog_jobs({0, 10, 20});
  struct Scenario {
    const char* name;
    double straggler_p;
    bool speculation;
    Seconds mtbf;
  };
  const std::vector<Scenario> scenarios = {
      {"clean", 0.0, false, 0.0},
      {"stragglers", 0.08, false, 0.0},
      {"stragglers+spec", 0.08, true, 0.0},
      {"failures(mtbf=45s)", 0.0, false, 45.0},
  };
  const std::vector<SchedulerKind> kinds = {SchedulerKind::kFair,
                                            SchedulerKind::kPna};
  std::vector<driver::ExperimentConfig> cfgs;
  for (const auto& sc : scenarios) {
    for (auto kind : kinds) {
      auto cfg = sweep_config(jobs, kind, 100000.0);
      cfg.engine.fault.straggler_probability = sc.straggler_p;
      cfg.engine.fault.straggler_slowdown = 6.0;
      cfg.engine.fault.speculative_execution = sc.speculation;
      cfg.failures.cluster_mtbf = sc.mtbf;
      cfg.failures.repair_time = 60.0;
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"scenario", "scheduler", "mean JCT (s)",
                    "map p99 (s)", "spec attempts", "re-runs"});
  for (std::size_t c = 2; c <= 5; ++c) table.set_right_aligned(c);
  auto r = results.begin();
  for (const auto& sc : scenarios) {
    for (auto kind : kinds) {
      const double jct = mean_jct(*r);
      const Cdf maps = metrics::task_time_cdf(r->task_records,
                                              metrics::TaskFilter::kMapsOnly);
      std::size_t reruns = 0;
      for (const auto& t : r->task_records) {
        if (t.attempts > 1) ++reruns;
      }
      table.add_row({sc.name, driver::to_string(kind),
                     r->completed ? strf("%.1f", jct) : "DNF",
                     strf("%.1f", maps.value_at(0.99)),
                     sc.speculation ? strf("%zu", reruns) : "-",
                     strf("%zu", reruns)});
      csv.row({sc.name, driver::to_string(kind), strf("%.2f", jct),
               strf("%.2f", maps.value_at(0.99)), strf("%zu", reruns)});
      ++r;
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Speculative execution claws back the straggler tail (compare map\n"
      "p99 of 'stragglers' vs 'stragglers+spec'); under failures every\n"
      "scheduler still completes, re-running lost work.\n");
}

// Sparkline-style row: one glyph per bucket, scaled to the peak.
std::string render_row(const std::vector<metrics::TimelinePoint>& tl,
                       std::size_t columns, std::size_t peak) {
  static const char* kGlyphs[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  if (tl.empty() || peak == 0) return out;
  for (std::size_t c = 0; c < columns; ++c) {
    const std::size_t idx = c * tl.size() / columns;
    const double frac =
        static_cast<double>(tl[idx].running) / static_cast<double>(peak);
    out += kGlyphs[std::min<std::size_t>(7, std::size_t(frac * 7.999))];
  }
  return out;
}

// Running tasks over time (the paper's introduction, citing [5]):
// delay-based scheduling can leave "the number of map tasks running
// simultaneously far below a desired level", while eager probabilistic
// assignment keeps slots busy. One ASCII timeline per scheduler, from the
// Wordcount paper runs (the shuffle-heavy representative).
void running_tasks(CsvWriter& csv, const Horizon&) {
  constexpr Seconds kStep = 5.0;
  std::size_t peak = 0;
  std::map<SchedulerKind, std::vector<metrics::TimelinePoint>> map_tl,
      red_tl;
  for (auto kind : kSchedulers) {
    const auto& result = paper_runs().wordcount.at(kind);
    map_tl[kind] = metrics::running_tasks_timeline(
        result.task_records, metrics::TaskFilter::kMapsOnly, kStep);
    red_tl[kind] = metrics::running_tasks_timeline(
        result.task_records, metrics::TaskFilter::kReducesOnly, kStep);
    peak = std::max(peak, metrics::summarize_timeline(map_tl[kind])
                              .peak_running);
  }

  std::printf("running MAP tasks (height scaled to peak %zu):\n", peak);
  for (auto kind : kSchedulers) {
    std::printf("%-14s %s\n", driver::to_string(kind),
                render_row(map_tl[kind], 64, peak).c_str());
  }

  std::printf("\n%-14s %12s %10s %14s %12s\n", "scheduler", "mean maps",
              "peak maps", "mean reduces", "peak reduces");
  for (auto kind : kSchedulers) {
    const auto ms = metrics::summarize_timeline(map_tl[kind]);
    const auto rs = metrics::summarize_timeline(red_tl[kind]);
    std::printf("%-14s %12.1f %10zu %14.1f %12zu\n",
                driver::to_string(kind), ms.mean_running, ms.peak_running,
                rs.mean_running, rs.peak_running);
    for (std::size_t i = 0; i < map_tl[kind].size(); ++i) {
      csv.row({driver::to_string(kind),
               strf("%.1f", map_tl[kind][i].time),
               strf("%zu", map_tl[kind][i].running),
               strf("%zu", i < red_tl[kind].size()
                               ? red_tl[kind][i].running
                               : 0)});
    }
  }
}

// Slowstart ablation: when may reduces launch? Hadoop's
// mapred.reduce.slowstart.completed.maps governs the shuffle-overlap vs
// slot-hoarding trade-off that motivates the Coupling Scheduler (and that
// the paper's probabilistic immediate assignment leans on). Sweep the gate
// for Fair and Probabilistic.
void ablation_slowstart(CsvWriter& csv, const Horizon&) {
  const auto jobs = catalog_jobs({0, 2, 10, 12});  // shuffle-heavy
  const std::vector<double> gates = {0.0, 0.05, 0.25, 0.5, 0.75, 0.95};
  const std::vector<SchedulerKind> kinds = {SchedulerKind::kFair,
                                            SchedulerKind::kPna};
  std::vector<driver::ExperimentConfig> cfgs;
  for (double slowstart : gates) {
    for (auto kind : kinds) {
      cfgs.push_back(sweep_config(jobs, kind, 100000.0));
      cfgs.back().engine.reduce_slowstart = slowstart;
    }
  }
  const auto results = driver::run_experiments(cfgs);

  AsciiTable table({"slowstart", "fair JCT (s)", "pna JCT (s)",
                    "fair reduce-util", "pna reduce-util"});
  for (std::size_t c = 0; c <= 4; ++c) table.set_right_aligned(c);
  auto r = results.begin();
  for (double slowstart : gates) {
    double jct[2] = {0, 0}, util[2] = {0, 0};
    for (std::size_t k = 0; k < kinds.size(); ++k, ++r) {
      jct[k] = mean_jct(*r);
      util[k] = r->utilization.reduce_utilization();
      csv.row({strf("%.2f", slowstart), driver::to_string(kinds[k]),
               strf("%.2f", jct[k]), strf("%.4f", util[k])});
    }
    table.add_row({strf("%.2f", slowstart), strf("%.1f", jct[0]),
                   strf("%.1f", jct[1]), strf("%.1f%%", 100.0 * util[0]),
                   strf("%.1f%%", 100.0 * util[1])});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Early launch (low slowstart) overlaps shuffle with maps but hoards\n"
      "bottleneck reduce slots; late launch serializes. The sweet spot\n"
      "motivates Coupling's progress-coupled launching.\n");
}

// --- stream rows ------------------------------------------------------------

// The stream studies' cluster: 12 nodes serving Table II jobs at 5% of
// their map/reduce counts keeps one cell in the seconds range while
// preserving the mix shape (many small jobs, a heavy tail of big ones).
// The saturation knee of this setup is ~550-650 jobs/h for every
// scheduler.
constexpr double kJobScale = 0.05;
constexpr std::size_t kStreamNodes = 12;

/// One stream cell under `sched` on the stream cluster, measured over `h`.
/// The Wordcount batch is a dummy: the stream overwrites base.jobs with
/// the arrivals.
driver::StreamConfig stream_config(SchedulerKind sched, const Horizon& h) {
  driver::StreamConfig cfg;
  cfg.base = driver::paper_config(
      workload::table2_batch(mapreduce::JobKind::kWordcount), sched, kSeed);
  cfg.base.nodes = kStreamNodes;
  cfg.arrivals.duration = h.duration;
  cfg.arrivals.mix.map_count_scale = kJobScale;
  cfg.arrivals.mix.reduce_count_scale = kJobScale;
  cfg.warmup = h.warmup;
  return cfg;
}

// Saturation sweep: offered load vs goodput and response-time percentiles
// for PNA against the Fair and Coupling baselines, under an open-loop
// Poisson job stream drawn from the Table II mix.
//
// Each (scheduler, rate) cell is one streaming run with a shared seed, so
// every scheduler faces the byte-identical arrival sequence at a given
// rate. Below the knee goodput tracks the offered rate and response times
// stay flat; past it the backlog grows for the whole measurement window
// and the percentiles blow up — the per-scheduler knee is the capacity
// number a closed batch (makespan) experiment cannot measure. The rate
// grid brackets the knee.
void saturation_sweep(CsvWriter& csv, const Horizon& h) {
  constexpr double kRates[] = {150.0, 300.0, 450.0, 600.0, 750.0, 900.0};
  std::vector<driver::StreamConfig> configs;
  for (auto sched : kSchedulers) {
    for (double rate : kRates) {
      auto cfg = stream_config(sched, h);
      cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
      cfg.arrivals.rate_per_hour = rate;
      configs.push_back(std::move(cfg));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  std::size_t i = 0;
  for (auto sched : kSchedulers) {
    std::printf("\n%-13s %9s %9s %8s %8s %8s %8s %7s\n",
                driver::to_string(sched), "offered/h", "goodput/h", "p50",
                "p95", "p99", "queue50", "maputil");
    for (double rate : kRates) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      std::printf("  rate %5.0f  %9.1f %9.1f %7.1fs %7.1fs %7.1fs %7.1fs "
                  "%6.1f%%%s\n",
                  rate, ss.offered_jobs_per_hour,
                  ss.throughput_jobs_per_hour, ss.response_time.p50,
                  ss.response_time.p95, ss.response_time.p99,
                  ss.queueing_delay.p50, 100.0 * ss.map_slot_utilization,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({driver::to_string(sched), strf("%.6g", rate),
               strf("%.6g", ss.offered_jobs_per_hour),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p95),
               strf("%.6g", ss.response_time.p99),
               strf("%.6g", ss.response_time.mean),
               strf("%.6g", ss.queueing_delay.p50),
               strf("%.6g", ss.queueing_delay.p95),
               strf("%.6g", ss.queueing_delay.p99),
               strf("%.6g", ss.mean_jobs_in_system),
               strf("%.6g", ss.map_slot_utilization),
               strf("%.6g", ss.reduce_slot_utilization),
               r.run.completed ? "1" : "0"});
    }
  }
}

// Admission sweep: goodput vs rejection rate for each admission policy at
// and past the saturation knee, per scheduler, with and without failure
// injection.
//
// The cluster is offered the knee rate and 1.5x the knee rate, to show
// what each control policy buys there. Below the knee every policy admits
// everything and the columns coincide; past it, always-admit lets the
// backlog (and response percentiles) diverge while the threshold policies
// trade a slice of the offered load for goodput and latency on the jobs
// they do admit — the classic goodput-vs-rejection curve.
//
// Each (scheduler, rate, policy, mtbf) cell is one streaming run with a
// shared seed: within a (scheduler, rate, mtbf) group the arrival sequence
// is byte-identical, so the policies are exactly paired.
void admission_sweep(CsvWriter& csv, const Horizon& h) {
  /// Knee rate and 1.5x the knee (past saturation) per the saturation sweep.
  constexpr double kRates[] = {600.0, 900.0};
  constexpr Seconds kMtbfs[] = {0.0, 400.0};
  constexpr control::AdmissionPolicyKind kPolicies[] = {
      control::AdmissionPolicyKind::kAlwaysAdmit,
      control::AdmissionPolicyKind::kStaticThreshold,
      control::AdmissionPolicyKind::kTokenBucket,
      control::AdmissionPolicyKind::kAdaptive,
  };

  std::vector<driver::StreamConfig> configs;
  for (auto sched : kSchedulers) {
    for (Seconds mtbf : kMtbfs) {
      for (double rate : kRates) {
        for (auto policy : kPolicies) {
          auto cfg = stream_config(sched, h);
          cfg.base.failures.cluster_mtbf = mtbf;
          cfg.base.admission.policy = policy;
          // Backlog limit between the sub-knee steady-state L (~10) and
          // the always-admit overload peak (~37): tight enough to shed load
          // at 1.5x, loose enough not to starve slots (a limit near the
          // sub-knee L rejects so aggressively that goodput drops below
          // always-admit). The token bucket refills at the knee rate; the
          // adaptive max sits below the overload peak so the AIMD limit is
          // the binding constraint.
          cfg.base.admission.max_jobs_in_system = 24.0;
          cfg.base.admission.bucket_rate_per_hour = 650.0;
          cfg.base.admission.adaptive_target_delay = 60.0;
          cfg.base.admission.adaptive_max_limit = 32.0;
          cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
          cfg.arrivals.rate_per_hour = rate;
          configs.push_back(std::move(cfg));
        }
      }
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  std::size_t i = 0;
  for (auto sched : kSchedulers) {
    for (Seconds mtbf : kMtbfs) {
      std::printf("\n%-13s (mtbf=%s)\n  %-17s %5s %9s %9s %7s %8s %8s %7s\n",
                  driver::to_string(sched),
                  mtbf > 0.0 ? strf("%.0fs", mtbf).c_str() : "off", "policy",
                  "rate", "offered/h", "goodput/h", "rej%", "p50", "p99",
                  "L");
      for (double rate : kRates) {
        for (auto policy : kPolicies) {
          const auto& r = results[i++];
          const auto& ss = r.steady;
          std::printf("  %-17s %5.0f %9.1f %9.1f %6.1f%% %7.1fs %7.1fs "
                      "%6.1f%s\n",
                      control::to_string(policy), rate,
                      ss.offered_jobs_per_hour, ss.throughput_jobs_per_hour,
                      100.0 * ss.rejection_rate, ss.response_time.p50,
                      ss.response_time.p99, ss.mean_jobs_in_system,
                      r.run.completed ? "" : "  [did not drain]");
          csv.row({driver::to_string(sched), control::to_string(policy),
                   strf("%.6g", mtbf), strf("%.6g", rate),
                   strf("%.6g", ss.offered_jobs_per_hour),
                   strf("%.6g", ss.throughput_jobs_per_hour),
                   strf("%.6g", ss.rejection_rate),
                   strf("%zu", ss.jobs_rejected),
                   strf("%zu", ss.jobs_deferred),
                   strf("%zu", ss.jobs_aborted),
                   strf("%.6g", ss.deferral_delay.p50),
                   strf("%.6g", ss.deferral_delay.p99),
                   strf("%.6g", ss.response_time.p50),
                   strf("%.6g", ss.response_time.p95),
                   strf("%.6g", ss.response_time.p99),
                   strf("%.6g", ss.mean_jobs_in_system),
                   r.run.completed ? "1" : "0"});
        }
      }
    }
  }
}

// Telemetry overhead: the acceptance bar for the subsystem is that
// instrumentation costs < 5% wall clock when no exporter is attached.
//
// Four modes over the same paper-scale mixed batch (identical seeds, so
// the simulated work is byte-identical):
//   baseline  — enable_telemetry = false: every metric pointer stays null,
//               the hot path pays one predictable branch per event
//   counters  — registry attached (the run_experiment default): counter
//               bumps + histogram observes + scoped wall timers
//   tracing   — counters plus the causal tracer (span recorder + placement
//               decision log + critical-path extraction, no file output)
//   exporting — counters plus the 10 s gauge sampler and both exporters
//               (JSONL + Chrome trace) writing to temp files
struct ModeResult {
  std::string name;
  std::vector<double> run_ms;  ///< one entry per rep
  std::size_t events = 0;      ///< events processed per run (identical)

  [[nodiscard]] double best_ms() const {
    return *std::min_element(run_ms.begin(), run_ms.end());
  }
  [[nodiscard]] double mean_ms() const {
    double s = 0.0;
    for (double v : run_ms) s += v;
    return s / static_cast<double>(run_ms.size());
  }
};

driver::ExperimentConfig mode_config(const std::string& mode,
                                     const std::string& tmp) {
  // The pnats_sim "mixed" batch: two applications of each Table II kind.
  auto cfg = driver::paper_config(catalog_jobs({0, 2, 10, 12, 20, 22}),
                                  SchedulerKind::kPna, kSeed);
  cfg.enable_telemetry = mode != "baseline";
  cfg.enable_tracing = mode == "tracing";
  if (mode == "exporting") {
    cfg.sample_period = 10.0;
    cfg.telemetry_path = tmp + "/overhead_telemetry.jsonl";
    cfg.perfetto_path = tmp + "/overhead_perfetto.json";
  }
  return cfg;
}

void telemetry_overhead(CsvWriter& csv, const Horizon&) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kReps = 3;
  const std::string tmp = std::filesystem::temp_directory_path().string();
  const std::vector<std::string> modes = {"baseline", "counters", "tracing",
                                          "exporting"};

  std::printf("telemetry overhead | paper-scale mixed batch, %zu reps "
              "per mode (best-of shown)\n",
              kReps);

  // Interleave modes across reps so host noise (thermal drift, other
  // processes) hits all modes equally instead of biasing the last one.
  std::vector<ModeResult> results;
  for (const auto& m : modes) results.push_back({m, {}, 0});
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      const auto cfg = mode_config(modes[mi], tmp);
      const auto t0 = Clock::now();
      const auto run = driver::run_experiment(cfg);
      const auto t1 = Clock::now();
      if (!run.completed) {
        std::fprintf(stderr, "mode %s did not complete\n",
                     modes[mi].c_str());
        std::exit(1);
      }
      results[mi].events = run.events_processed;
      results[mi].run_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }

  const double base_ms = results[0].best_ms();
  std::printf("  %-10s %10s %10s %12s %14s %10s\n", "mode", "best_ms",
              "mean_ms", "events", "events/sec", "overhead");
  for (const auto& r : results) {
    const double best = r.best_ms();
    const double slowdown = 100.0 * (best - base_ms) / base_ms;
    const double eps = static_cast<double>(r.events) / (best / 1e3);
    std::printf("  %-10s %10.1f %10.1f %12zu %14.0f %+9.2f%%\n",
                r.name.c_str(), best, r.mean_ms(), r.events, eps,
                slowdown);
    csv.row({r.name, std::to_string(kReps), strf("%.3f", best),
             strf("%.3f", r.mean_ms()), std::to_string(r.events),
             strf("%.0f", eps), strf("%.3f", slowdown)});
  }

  // The acceptance bar applies to detached-exporter instrumentation
  // (mode "counters"): warn loudly if it exceeds 5%.
  const double counters_pct =
      100.0 * (results[1].best_ms() - base_ms) / base_ms;
  if (counters_pct >= 5.0) {
    std::fprintf(stderr,
                 "WARNING: counters-only overhead %.2f%% >= 5%% bar\n",
                 counters_pct);
  }
}

// Tenant isolation: what a bursty neighbour costs a steady tenant, and
// what per-tenant admission quotas buy back.
//
// A steady Poisson tenant (300 jobs/h, fair-share weight 4) shares the
// stream cluster with a bursty MMPP tenant offering 900 jobs/h — 1.5x the
// saturation knee — at weight 1. Each scheduler variant runs three cells
// on the same seed:
//
//   solo     the steady tenant alone (its undisturbed baseline; the
//            per-tenant RNG streams make its arrivals byte-identical in
//            every cell)
//   shared   both tenants, no quotas (always-admit)
//   quota    both tenants under admission quotas {4, 1} over a backlog
//            budget of 24 jobs — the bursty tenant may hold at most
//            24 * 1/5 jobs in system, the steady one 24 * 4/5
//
// The headline number is the steady tenant's p99 response-time
// degradation (shared / solo); quotas should pull it back toward 1 by
// deferring/rejecting the neighbour's overload instead of letting it
// monopolize the backlog.
//
// Scheduler variants: Fair with the plain kFair job order, Fair with
// kWeightedFair (the weights above), and PNA (placement-probability
// scheduling, kFair order).
enum class Cell { kSolo, kShared, kQuota };

constexpr const char* cell_name(Cell c) {
  switch (c) {
    case Cell::kSolo: return "solo";
    case Cell::kShared: return "shared";
    case Cell::kQuota: return "quota";
  }
  return "?";
}

void tenant_isolation(CsvWriter& csv, const Horizon& h) {
  constexpr double kSteadyRate = 300.0;  ///< jobs/h, well under the knee
  constexpr double kBurstyRate = 900.0;  ///< 1.5x the ~600 jobs/h knee
  constexpr double kSteadyWeight = 4.0;
  constexpr double kBurstyWeight = 1.0;
  constexpr double kBacklogBudget = 24.0;  ///< quota budget (jobs in system)

  struct Variant {
    const char* label;
    SchedulerKind sched;
    mapreduce::JobOrder order;
  };
  constexpr Variant kVariants[] = {
      {"fair", SchedulerKind::kFair, mapreduce::JobOrder::kFair},
      {"weighted-fair", SchedulerKind::kFair,
       mapreduce::JobOrder::kWeightedFair},
      {"pna", SchedulerKind::kPna, mapreduce::JobOrder::kFair},
  };
  constexpr Cell kCells[] = {Cell::kSolo, Cell::kShared, Cell::kQuota};

  std::vector<driver::StreamConfig> configs;
  for (const auto& v : kVariants) {
    for (Cell cell : kCells) {
      auto cfg = stream_config(v.sched, h);
      cfg.base.fair.job_order = v.order;

      workload::TenantConfig steady;
      steady.name = "steady";
      steady.rate_per_hour = kSteadyRate;
      steady.weight = kSteadyWeight;
      steady.mix = cfg.arrivals.mix;
      cfg.arrivals.tenants.push_back(steady);

      if (cell != Cell::kSolo) {
        workload::TenantConfig bursty;
        bursty.name = "bursty";
        bursty.process = workload::ArrivalProcess::kMmpp;
        bursty.rate_per_hour = kBurstyRate;
        bursty.weight = kBurstyWeight;
        bursty.mix = cfg.arrivals.mix;
        cfg.arrivals.tenants.push_back(bursty);
      }
      if (cell == Cell::kQuota) {
        cfg.base.admission.max_jobs_in_system = kBacklogBudget;
        cfg.base.admission.tenant_quota_weights = {kSteadyWeight,
                                                   kBurstyWeight};
      }
      configs.push_back(std::move(cfg));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  std::size_t i = 0;
  for (const auto& v : kVariants) {
    std::printf("\n%-13s %-7s %9s %8s %8s %7s %9s %9s %7s\n", v.label,
                "cell", "steady/h", "p50", "p99", "x-solo", "bursty/h",
                "b.rej", "L");
    double solo_p99 = 0.0;
    for (Cell cell : kCells) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto* steady = ss.tenant(TenantId(0));
      const auto* bursty = ss.tenant(TenantId(1));
      if (steady == nullptr) continue;  // nothing measured: skip the row
      if (cell == Cell::kSolo) solo_p99 = steady->response_time.p99;
      const double degradation =
          solo_p99 > 0.0 ? steady->response_time.p99 / solo_p99 : 0.0;
      std::printf("%-13s %-7s %9.1f %7.1fs %7.1fs %6.2fx %9.1f %9zu "
                  "%6.1f%s\n",
                  "", cell_name(cell), steady->throughput_jobs_per_hour,
                  steady->response_time.p50, steady->response_time.p99,
                  degradation,
                  bursty != nullptr ? bursty->throughput_jobs_per_hour : 0.0,
                  bursty != nullptr ? bursty->jobs_rejected : 0,
                  ss.mean_jobs_in_system,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({v.label, cell_name(cell),
               cell == Cell::kQuota ? "1" : "0",
               strf("%.6g", steady->throughput_jobs_per_hour),
               strf("%.6g", steady->response_time.p50),
               strf("%.6g", steady->response_time.p99),
               strf("%.6g", degradation),
               strf("%zu", steady->jobs_rejected),
               strf("%zu", steady->jobs_deferred),
               strf("%.6g",
                    bursty != nullptr ? bursty->throughput_jobs_per_hour
                                      : 0.0),
               strf("%.6g",
                    bursty != nullptr ? bursty->response_time.p99 : 0.0),
               strf("%zu", bursty != nullptr ? bursty->jobs_rejected : 0),
               strf("%zu", bursty != nullptr ? bursty->jobs_deferred : 0),
               strf("%.6g", ss.mean_jobs_in_system),
               r.run.completed ? "1" : "0"});
    }
  }
}

// Heterogeneous-cluster sweep: what compute-awareness buys on a
// fast-rack / slow-rack cluster.
//
// The stream cluster is split by rack (2 racks) into a "fast" class (CPU
// speed s) and a "slow" class (CPU speed 1/s) with identical slot counts
// and NICs — racks bought in different generations. The skew axis sweeps
// s in {1, 2, 4}; s = 1 is the homogeneous control where every variant
// should agree. Each cell runs the same open-loop Poisson stream (per-job
// streams are labeled, so arrivals are byte-identical across variants):
//
//   pna-net      PNA, cost_mix 0   — the paper's network-only cost
//   pna-mix      PNA, cost_mix 0.5 — blended network + compute seconds
//   pna-compute  PNA, cost_mix 1   — compute seconds only
//   unrelated    greedy min-completion-time on unrelated machines
//                (Fotakis et al. line; deterministic, compute-aware)
//
// The headline numbers are steady-state p99 response time and the share
// of map work the fast rack ends up executing: network-only PNA keeps
// following data locality and strands half the work on the slow rack,
// while the compute-aware variants shift it to the fast rack at the cost
// of remote reads.
hetero::HeteroConfig fast_slow_racks(double skew) {
  hetero::NodeClass fast;
  fast.name = "fast";
  fast.cpu_speed = skew;
  hetero::NodeClass slow;
  slow.name = "slow";
  slow.cpu_speed = 1.0 / skew;
  hetero::HeteroConfig cfg;
  cfg.classes = {fast, slow};
  cfg.assign = hetero::AssignMode::kByRack;
  return cfg;
}

void hetero_sweep(CsvWriter& csv, const Horizon& h) {
  constexpr double kRate = 360.0;  ///< jobs/h, under the homogeneous knee
  constexpr double kSkews[] = {1.0, 2.0, 4.0};
  struct Variant {
    const char* label;
    SchedulerKind sched;
    double cost_mix;
  };
  constexpr Variant kVariants[] = {
      {"pna-net", SchedulerKind::kPna, 0.0},
      {"pna-mix", SchedulerKind::kPna, 0.5},
      {"pna-compute", SchedulerKind::kPna, 1.0},
      {"unrelated", SchedulerKind::kUnrelated, 0.0},
  };

  std::vector<driver::StreamConfig> configs;
  for (const double skew : kSkews) {
    for (const auto& v : kVariants) {
      auto cfg = stream_config(v.sched, h);
      cfg.base.racks = 2;
      cfg.base.hetero = fast_slow_racks(skew);
      cfg.base.pna.cost_mix = v.cost_mix;
      cfg.arrivals.rate_per_hour = kRate;
      configs.push_back(std::move(cfg));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  std::size_t i = 0;
  for (const double skew : kSkews) {
    std::printf("\nskew %.0fx (fast %.2gx, slow %.2gx)\n", skew * skew,
                skew, 1.0 / skew);
    std::printf("%-13s %9s %8s %8s %7s %7s %7s\n", "variant", "goodput/h",
                "p50", "p99", "L", "fast%", "local%");
    for (const auto& v : kVariants) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto fast_maps =
          r.run.telemetry.counter("hetero.class.fast.maps_finished");
      const auto slow_maps =
          r.run.telemetry.counter("hetero.class.slow.maps_finished");
      const double fast_share =
          fast_maps + slow_maps > 0
              ? static_cast<double>(fast_maps) /
                    static_cast<double>(fast_maps + slow_maps)
              : 0.0;
      const auto loc = metrics::locality_summary(
          r.run.task_records, metrics::TaskFilter::kMapsOnly);
      std::printf("%-13s %9.1f %7.1fs %7.1fs %6.2f %6.1f%% %6.1f%%%s\n",
                  v.label, ss.throughput_jobs_per_hour,
                  ss.response_time.p50, ss.response_time.p99,
                  ss.mean_jobs_in_system, 100.0 * fast_share,
                  loc.node_local_pct,
                  r.run.completed ? "" : "  [did not drain]");
      csv.row({strf("%.6g", skew), v.label, strf("%.6g", v.cost_mix),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p95),
               strf("%.6g", ss.response_time.p99),
               strf("%.6g", ss.mean_jobs_in_system),
               strf("%.6g", ss.map_slot_utilization),
               strf("%llu", static_cast<unsigned long long>(fast_maps)),
               strf("%llu", static_cast<unsigned long long>(slow_maps)),
               strf("%.6g", fast_share),
               strf("%.6g", loc.node_local_pct),
               r.run.completed ? "1" : "0"});
    }
  }
}

// Degraded networks (ROADMAP "reconfigurable and degraded networks"): how
// much of the PNA advantage survives when the network itself misbehaves.
// An open-loop Poisson stream at 1.2x the knee rate runs under four chaos
// scenarios — clean, link/switch cuts, background-traffic surges, and
// both — for PNA on static hop distances, PNA on condition-aware per-link
// distances, min-cost and FIFO. Every scheduler faces the byte-identical
// arrival sequence and the byte-identical fault schedule (the injector
// draws on labeled sub-streams the schedulers never touch).
//
// Reported per cell: goodput, response p50/p99, the stall-retry ledger
// (transfer stall timeouts and retries), the chaos event counts, and the
// critical-path blame shares — under cuts the blame mass must shift from
// queue/compute toward network and retry, and the condition-aware PNA
// should shed some of that shift by routing around degraded paths.
struct BlameShares {
  double queue = 0.0, network = 0.0, compute = 0.0, retry = 0.0;
};

BlameShares blame_shares(const driver::ExperimentResult& r) {
  BlameShares s;
  double response = 0.0;
  for (const auto& b : r.job_blames) {
    s.queue += b.queue();
    s.network += b.network();
    s.compute += b.compute();
    s.retry += b.retry();
    response += b.response;
  }
  if (response > 0.0) {
    s.queue /= response;
    s.network /= response;
    s.compute /= response;
    s.retry /= response;
  }
  return s;
}

void degraded_network(CsvWriter& csv, const Horizon& h) {
  constexpr double kRate = 720.0;  // 1.2x the ~600 jobs/h knee at this scale
  struct SchedulerCase {
    const char* name;
    SchedulerKind kind;
    driver::DistanceMode distance;
  };
  constexpr SchedulerCase kCases[] = {
      {"pna-hop", SchedulerKind::kPna, driver::DistanceMode::kHops},
      {"pna-cond", SchedulerKind::kPna,
       driver::DistanceMode::kWeightedPerLink},
      {"mincost", SchedulerKind::kMinCost, driver::DistanceMode::kHops},
      {"fifo", SchedulerKind::kFifo, driver::DistanceMode::kHops},
  };
  struct Scenario {
    const char* name;
    bool cuts;
    bool surges;
  };
  constexpr Scenario kScenarios[] = {
      {"clean", false, false},
      {"cuts", true, false},
      {"surges", false, true},
      {"cuts+surges", true, true},
  };

  std::vector<driver::StreamConfig> configs;
  for (const auto& scenario : kScenarios) {
    for (const auto& sc : kCases) {
      auto cfg = stream_config(sc.kind, h);
      cfg.base.racks = 4;  // rack uplinks give faults somewhere to bite
      cfg.base.distance_mode = sc.distance;
      cfg.base.enable_tracing = true;  // blame shares need the span trees
      cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
      cfg.arrivals.rate_per_hour = kRate;
      if (scenario.cuts) {
        cfg.base.net_faults.link_mtbf = 60.0;
        cfg.base.net_faults.link_repair_time = 45.0;
        cfg.base.net_faults.switch_mtbf = 400.0;
        cfg.base.net_faults.switch_repair_time = 90.0;
        cfg.base.net_faults.repair_jitter = 0.3;
      }
      if (scenario.surges) {
        cfg.base.net_faults.surge_mtbf = 150.0;
        cfg.base.net_faults.surge_duration = 90.0;
        cfg.base.net_faults.surge_utilization = 0.6;
      }
      if (scenario.cuts || scenario.surges) {
        cfg.base.engine.stall_timeout = 30.0;
        cfg.base.engine.stall_backoff_base = 5.0;
        cfg.base.engine.stall_backoff_cap = 60.0;
      }
      configs.push_back(std::move(cfg));
    }
  }

  const auto results = driver::run_stream_experiments(configs);

  std::size_t i = 0;
  for (const auto& scenario : kScenarios) {
    AsciiTable table({"scheduler", "goodput/h", "p50 (s)", "p99 (s)",
                      "stalls", "retries", "net blame", "retry blame"});
    for (std::size_t c = 1; c <= 7; ++c) table.set_right_aligned(c);
    for (const auto& sc : kCases) {
      const auto& r = results[i++];
      const auto& ss = r.steady;
      const auto& tel = r.run.telemetry;
      const BlameShares shares = blame_shares(r.run);
      table.add_row(
          {sc.name, strf("%.1f", ss.throughput_jobs_per_hour),
           strf("%.1f", ss.response_time.p50),
           strf("%.1f", ss.response_time.p99),
           strf("%llu", static_cast<unsigned long long>(
                            tel.counter("engine.transfer.stall_timeouts"))),
           strf("%llu", static_cast<unsigned long long>(
                            tel.counter("engine.transfer.retries"))),
           strf("%.1f%%", 100.0 * shares.network),
           strf("%.1f%%", 100.0 * shares.retry)});
      csv.row({scenario.name, sc.name, strf("%.6g", ss.offered_jobs_per_hour),
               strf("%.6g", ss.throughput_jobs_per_hour),
               strf("%.6g", ss.response_time.p50),
               strf("%.6g", ss.response_time.p99),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("engine.transfer.stall_timeouts"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("engine.transfer.retries"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.fault.links_cut"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.fault.switch_events"))),
               strf("%llu", static_cast<unsigned long long>(
                                tel.counter("net.surge.episodes"))),
               strf("%.6g", shares.queue), strf("%.6g", shares.network),
               strf("%.6g", shares.compute), strf("%.6g", shares.retry),
               r.run.completed ? "1" : "0"});
    }
    std::printf("\n[%s]\n%s", scenario.name, table.render().c_str());
  }
  std::printf(
      "\nUnder cuts the blame mass shifts from queue/compute toward network\n"
      "and retry; the condition-aware PNA sheds part of that shift by\n"
      "placing around degraded paths, while FIFO absorbs it in p99.\n");
}

// Production-trace replay: how much do the Poisson and MMPP abstractions
// mispredict against a SWIM/Facebook-style trace at the same mean rate?
//
// For each scheduler x rate cell the stream cluster serves three arrival
// processes — homogeneous Poisson, 2-state MMPP, and a streamed replay of
// a ProductionTraceGenerator trace (diurnal sinusoid x burst chain x
// heavy-tailed sizes x Zipf users) generated at the same
// mean_rate_per_hour and written to a trace CSV first, so the replay
// exercises the full file -> TraceStreamReader -> run_experiment_streamed
// path. The trace file per rate is shared across schedulers: every
// scheduler faces the byte-identical arrival sequence.
//
// The comparison to read off the CSV: the knee (where goodput detaches
// from offered load and p99 blows up) sits at a LOWER rate under trace
// replay than under Poisson at the same mean — burst episodes saturate
// the cluster while calm stretches idle it — and the per-tenant p99
// spread is wide (heavy users queue behind their own bursts).
//
// CSV rows: aggregate rows tenant="all", plus per-tenant rows for the
// trace cells; with `scale_demo`, a last row for the >=100k-job
// streaming-replay scale demonstration (bounded arrival buffer: the
// driver holds only the lookahead window, never the whole trace).
enum class Process { kPoisson, kMmpp, kTrace };

const char* to_string(Process p) {
  switch (p) {
    case Process::kPoisson: return "poisson";
    case Process::kMmpp: return "mmpp";
    case Process::kTrace: return "trace";
  }
  return "?";
}

std::string trace_path_for(double rate) {
  return (std::filesystem::temp_directory_path() /
          strf("pnats_trace_replay_%.0f.csv", rate))
      .string();
}

// Peak RSS from /proc/self/status, in MiB (0 when unavailable).
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

// Stream a >=100k-job generated trace end to end. The point is the
// arrival-buffer profile, not the schedule: the buffered path would
// materialise every Arrival up front (StreamResult::arrivals), the
// streamed path holds only the lookahead window — the resident set is
// then dominated by the per-job/task records the run exists to report,
// not by the trace.
void scale_demo(CsvWriter& csv) {
  workload::TraceGenConfig gcfg;
  gcfg.duration = 25.0 * 3600.0;
  gcfg.mean_rate_per_hour = 4400.0;  // ~110k jobs over 25h
  gcfg.users = 8;
  gcfg.mix.map_count_scale = 0.01;  // tiny jobs keep one run tractable
  gcfg.mix.reduce_count_scale = 0.01;

  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_trace_replay_100k.csv")
          .string();
  std::size_t rows = 0;
  {
    workload::ProductionTraceGenerator gen(gcfg, Rng(kSeed));
    rows = workload::write_arrival_trace(path, gen);
  }
  std::printf("\nscale demo: generated %zu-job trace (%.1f MiB on disk)\n",
              rows, std::filesystem::file_size(path) / (1024.0 * 1024.0));

  driver::StreamConfig cfg;
  cfg.base = driver::paper_config(
      workload::table2_batch(mapreduce::JobKind::kWordcount),
      SchedulerKind::kPna, kSeed);
  cfg.base.nodes = 24;
  cfg.arrivals.process = workload::ArrivalProcess::kTrace;
  cfg.arrivals.trace_path = path;
  cfg.arrivals.duration = gcfg.duration;
  cfg.warmup = 3600.0;
  cfg.stream_trace = true;

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = driver::run_stream_experiment(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& ss = r.steady;
  std::printf("scale demo: streamed replay of %zu jobs %s in %.1fs wall "
              "(arrivals buffered: %zu, peak RSS %.0f MiB)\n",
              r.run.job_records.size(),
              r.run.completed ? "drained" : "DID NOT DRAIN", wall,
              r.arrivals.size(), peak_rss_mib());
  std::printf("scale demo: goodput %.1f jobs/h, response p50 %.1fs p99 "
              "%.1fs, L %.1f\n",
              ss.throughput_jobs_per_hour, ss.response_time.p50,
              ss.response_time.p99, ss.mean_jobs_in_system);
  csv.row({"trace-100k", "pna", strf("%.6g", gcfg.mean_rate_per_hour), "all",
           strf("%.6g", ss.offered_jobs_per_hour),
           strf("%.6g", ss.throughput_jobs_per_hour),
           strf("%.6g", ss.response_time.p50),
           strf("%.6g", ss.response_time.p95),
           strf("%.6g", ss.response_time.p99),
           strf("%.6g", ss.queueing_delay.p99),
           strf("%.6g", ss.mean_jobs_in_system),
           strf("%.6g", ss.map_slot_utilization),
           r.run.completed ? "1" : "0"});
  std::filesystem::remove(path);
}

void trace_replay(CsvWriter& csv, const Horizon& h) {
  // One shared trace file per rate, drained from the generator through the
  // canonical writer so the replay path is file -> TraceStreamReader. The
  // generator at bench scale: one diurnal cycle inside the measurement
  // window and burst sojourns short enough that every cell sees several
  // episodes. Mix scale matches the Poisson/MMPP cells so only the
  // arrival-clock shape differs.
  for (double rate : h.rates) {
    workload::TraceGenConfig gcfg;
    gcfg.duration = h.duration;
    gcfg.mean_rate_per_hour = rate;
    gcfg.diurnal_period = h.duration;
    gcfg.mean_calm_sojourn = 150.0;
    gcfg.mean_burst_sojourn = 60.0;
    gcfg.users = 6;
    gcfg.mix.map_count_scale = kJobScale;
    gcfg.mix.reduce_count_scale = kJobScale;
    workload::ProductionTraceGenerator gen(gcfg, Rng(kSeed));
    (void)workload::write_arrival_trace(trace_path_for(rate), gen);
  }

  const std::vector<Process> processes = {Process::kPoisson, Process::kMmpp,
                                          Process::kTrace};
  std::vector<driver::StreamConfig> configs;
  for (Process p : processes) {
    for (auto sched : kSchedulers) {
      for (double rate : h.rates) {
        auto cfg = stream_config(sched, h);
        cfg.arrivals.rate_per_hour = rate;
        switch (p) {
          case Process::kPoisson:
            cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
            break;
          case Process::kMmpp:
            cfg.arrivals.process = workload::ArrivalProcess::kMmpp;
            break;
          case Process::kTrace:
            cfg.arrivals.process = workload::ArrivalProcess::kTrace;
            cfg.arrivals.trace_path = trace_path_for(rate);
            cfg.stream_trace = true;  // the memory-bounded streaming path
            break;
        }
        configs.push_back(std::move(cfg));
      }
    }
  }

  const auto results = driver::run_stream_experiments(configs);
  for (double rate : h.rates) std::filesystem::remove(trace_path_for(rate));

  std::size_t i = 0;
  for (Process p : processes) {
    for (auto sched : kSchedulers) {
      std::printf("\n[%s] %-13s %9s %9s %8s %8s %8s %7s\n", to_string(p),
                  driver::to_string(sched), "offered/h", "goodput/h", "p50",
                  "p95", "p99", "maputil");
      for (double rate : h.rates) {
        const auto& r = results[i++];
        const auto& ss = r.steady;
        std::printf("  rate %5.0f  %9.1f %9.1f %7.1fs %7.1fs %7.1fs "
                    "%6.1f%%%s\n",
                    rate, ss.offered_jobs_per_hour,
                    ss.throughput_jobs_per_hour, ss.response_time.p50,
                    ss.response_time.p95, ss.response_time.p99,
                    100.0 * ss.map_slot_utilization,
                    r.run.completed ? "" : "  [did not drain]");
        csv.row({to_string(p), driver::to_string(sched), strf("%.6g", rate),
                 "all", strf("%.6g", ss.offered_jobs_per_hour),
                 strf("%.6g", ss.throughput_jobs_per_hour),
                 strf("%.6g", ss.response_time.p50),
                 strf("%.6g", ss.response_time.p95),
                 strf("%.6g", ss.response_time.p99),
                 strf("%.6g", ss.queueing_delay.p99),
                 strf("%.6g", ss.mean_jobs_in_system),
                 strf("%.6g", ss.map_slot_utilization),
                 r.run.completed ? "1" : "0"});
        if (p != Process::kTrace) continue;
        // Per-tenant tail rows: only the trace cells carry a real tenant
        // population (Poisson/MMPP cells are single-tenant).
        for (const auto& t : ss.tenants) {
          csv.row({to_string(p), driver::to_string(sched),
                   strf("%.6g", rate), strf("%zu", t.tenant.value()),
                   strf("%.6g", t.offered_jobs_per_hour),
                   strf("%.6g", t.throughput_jobs_per_hour),
                   strf("%.6g", t.response_time.p50),
                   strf("%.6g", t.response_time.p95),
                   strf("%.6g", t.response_time.p99),
                   strf("%.6g", t.queueing_delay.p99),
                   strf("%.6g", t.mean_jobs_in_system),
                   /*map_slot_utilization=*/"",
                   r.run.completed ? "1" : "0"});
        }
      }
    }
  }

  // Per-tenant p99 spread at the mid-grid rate for the trace process: the
  // Zipf-heavy user 0 should pay the widest tail.
  const double report_rate = h.rates[h.rates.size() / 2];
  std::printf("\n[trace] per-tenant response p99 at rate %.0f/h:\n",
              report_rate);
  i = 2 * kSchedulers.size() * h.rates.size();  // trace block start
  for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
    for (std::size_t ri = 0; ri < h.rates.size(); ++ri) {
      if (h.rates[ri] != report_rate) continue;
      const auto& ss = results[i + s * h.rates.size() + ri].steady;
      std::printf("  %-13s", driver::to_string(kSchedulers[s]));
      for (const auto& t : ss.tenants) {
        std::printf("  t%zu %6.1fs", t.tenant.value(), t.response_time.p99);
      }
      std::printf("\n");
    }
  }

  if (h.scale_demo) scale_demo(csv);
}

// --- the table --------------------------------------------------------------

struct Row {
  const char* name;  ///< command-line name and CSV stem
  const char* figure;
  const char* caption;
  std::vector<std::string> columns;  ///< CSV header
  void (*report)(CsvWriter&, const Horizon&);
  Horizon horizon = {};
  /// The report quotes the CSV path in its own notes, so the closing
  /// "CSV: <path>" line is left out.
  bool quotes_csv_path = false;
};

// What a stream study shares with its `_quick` twin.
constexpr const char* kTenantCaption =
    "steady tenant's p99 under a bursty neighbour at 1.5x the knee, with "
    "and without admission quotas";
const std::vector<std::string> kTenantColumns = {
    "variant", "cell", "quota", "steady_goodput_jobs_per_hour",
    "steady_response_p50_s", "steady_response_p99_s",
    "steady_p99_degradation", "steady_rejected", "steady_deferred",
    "bursty_goodput_jobs_per_hour", "bursty_response_p99_s",
    "bursty_rejected", "bursty_deferred", "mean_jobs_in_system", "drained"};
constexpr const char* kHeteroCaption =
    "fast-rack/slow-rack cluster: network-only PNA vs combined-cost PNA vs "
    "the unrelated-machines greedy";
const std::vector<std::string> kHeteroColumns = {
    "skew", "variant", "cost_mix", "goodput_jobs_per_hour", "response_p50_s",
    "response_p95_s", "response_p99_s", "mean_jobs_in_system",
    "map_slot_util", "fast_maps", "slow_maps", "fast_map_share",
    "node_local_pct", "drained"};
constexpr const char* kDegradedCaption =
    "PNA (hop / condition-aware) vs min-cost and FIFO under link cuts, "
    "switch faults and traffic surges at 1.2x the knee rate";
const std::vector<std::string> kDegradedColumns = {
    "scenario", "scheduler", "offered_jobs_per_hour",
    "goodput_jobs_per_hour", "response_p50_s", "response_p99_s",
    "stall_timeouts", "transfer_retries", "links_cut", "switch_events",
    "surge_episodes", "blame_queue_share", "blame_network_share",
    "blame_compute_share", "blame_retry_share", "drained"};
constexpr const char* kTraceReplayCaption =
    "knees and per-tenant tails: streamed generated-trace replay vs Poisson "
    "and MMPP at the same mean rate";
const std::vector<std::string> kTraceReplayColumns = {
    "process", "scheduler", "rate_per_hour", "tenant",
    "offered_jobs_per_hour", "goodput_jobs_per_hour", "response_p50_s",
    "response_p95_s", "response_p99_s", "queueing_p99_s",
    "mean_jobs_in_system", "map_slot_utilization", "drained"};

const std::vector<Row> kRows = {
    {"table2_workload", "Table II", "the 30 benchmark jobs",
     {"job_id", "name", "maps", "reduces", "input_gib", "shuffle_gib"},
     table2_workload, {}, true},
    {"fig3_datasize_cdf", "Fig. 3", "CDF of input and shuffle data size",
     {"series", "gib", "cdf"}, fig3_datasize_cdf},
    {"fig4_jct_cdf", "Fig. 4",
     "CDF of job completion time (3 schedulers, repl=2)",
     {"scheduler", "jct_seconds", "cdf"}, fig4_jct_cdf},
    {"fig5_reduction", "Fig. 5",
     "reduction of job processing time vs Coupling / Fair",
     {"baseline", "reduction", "cdf"}, fig5_reduction},
    {"fig6_task_cdf", "Fig. 6", "CDF of task completion time",
     {"scheduler", "task_type", "seconds", "cdf"}, fig6_task_cdf},
    {"table3_locality", "Table III", "data locality of the three schedulers",
     {"scheduler", "filter", "node_local_pct", "rack_local_pct",
      "remote_pct"},
     table3_locality},
    {"fig7_locality_vs_size", "Fig. 7",
     "% of map tasks with local data vs input size",
     {"input_gb", "scheduler", "local_map_pct"}, fig7_locality_vs_size},
    {"pmin_sweep", "P_min sweep",
     "10 Wordcount jobs under varying P_min (Sec. III)",
     {"p_min", "completed", "mean_jct", "makespan"}, pmin_sweep},
    {"ablation_probability_model", "Ablation A",
     "probability-model alternatives",
     {"model", "mean_jct", "makespan", "map_local_pct", "reduce_cost"},
     ablation_probability_model},
    {"ablation_estimator", "Ablation B",
     "intermediate-size estimator (Eq. 3)",
     {"alpha", "estimator", "mean_jct", "reduce_cost"},
     ablation_estimator},
    {"ablation_netcond", "Ablation C", "network-condition distance source",
     {"scenario", "distance", "mean_jct", "makespan", "reduce_cost"},
     ablation_netcond},
    {"extended_baselines", "Extended baselines",
     "six schedulers on a mixed Table II batch",
     {"scheduler", "mean_jct", "p90_jct", "makespan", "local_pct",
      "reduce_cost"},
     extended_baselines},
    {"fault_tolerance", "Fault tolerance",
     "stragglers, speculation and TaskTracker failures",
     {"scenario", "scheduler", "mean_jct", "map_p99",
      "multi_attempt_tasks"},
     fault_tolerance},
    {"running_tasks", "Running tasks timeline",
     "map-slot occupancy over time (Wordcount batch)",
     {"scheduler", "time", "running_maps", "running_reduces"},
     running_tasks},
    {"ablation_slowstart", "Slowstart ablation",
     "reduce launch gate vs completion time",
     {"slowstart", "scheduler", "mean_jct", "reduce_util"},
     ablation_slowstart},
    {"saturation_sweep", "Saturation sweep",
     "open-loop Poisson stream: offered load vs goodput and response-time "
     "percentiles per scheduler",
     {"scheduler", "rate_per_hour", "offered_jobs_per_hour",
      "goodput_jobs_per_hour", "response_p50_s", "response_p95_s",
      "response_p99_s", "response_mean_s", "queueing_p50_s",
      "queueing_p95_s", "queueing_p99_s", "mean_jobs_in_system",
      "map_slot_utilization", "reduce_slot_utilization", "drained"},
     saturation_sweep, {600.0, 100.0}},
    {"admission_sweep", "Admission sweep",
     "goodput vs rejection per admission policy at and past the saturation "
     "knee, with/without failures",
     {"scheduler", "policy", "mtbf_s", "rate_per_hour",
      "offered_jobs_per_hour", "goodput_jobs_per_hour", "rejection_rate",
      "jobs_rejected", "jobs_deferred", "jobs_aborted", "deferral_p50_s",
      "deferral_p99_s", "response_p50_s", "response_p95_s",
      "response_p99_s", "mean_jobs_in_system", "drained"},
     admission_sweep, {600.0, 100.0}},
    {"tenant_isolation", "Tenant isolation", kTenantCaption, kTenantColumns,
     tenant_isolation, {600.0, 100.0}},
    {"tenant_isolation_quick", "Tenant isolation (quick)", kTenantCaption,
     kTenantColumns, tenant_isolation, {300.0, 50.0}},
    {"hetero_sweep", "Heterogeneity sweep", kHeteroCaption, kHeteroColumns,
     hetero_sweep, {900.0, 150.0}},
    {"hetero_sweep_quick", "Heterogeneity sweep (quick)", kHeteroCaption,
     kHeteroColumns, hetero_sweep, {300.0, 50.0}},
    {"degraded_network", "Degraded networks", kDegradedCaption,
     kDegradedColumns, degraded_network, {600.0, 100.0}},
    {"degraded_network_quick", "Degraded networks (quick)", kDegradedCaption,
     kDegradedColumns, degraded_network, {240.0, 40.0}},
    {"trace_replay", "Production trace replay", kTraceReplayCaption,
     kTraceReplayColumns, trace_replay,
     {600.0, 100.0, {150.0, 300.0, 450.0, 600.0, 750.0, 900.0}, true}},
    {"trace_replay_quick", "Production trace replay (quick)",
     kTraceReplayCaption, kTraceReplayColumns, trace_replay,
     {300.0, 50.0, {300.0, 600.0}}},
    {"telemetry_overhead", "Telemetry overhead",
     "wall-clock cost of each telemetry mode on the mixed batch (best of 3)",
     {"mode", "reps", "best_ms", "mean_ms", "events", "events_per_sec",
      "slowdown_pct_vs_baseline"},
     telemetry_overhead},
};

void print_help() {
  std::printf(
      "usage: bench_paper [row ...]\n"
      "Reproduces the paper's tables and figures and the stream studies.\n"
      "With no rows, runs every row in the order below; each prints its\n"
      "report and writes %s/<row>.csv.\n\nrows:\n",
      kOutputDir);
  for (const Row& row : kRows) {
    std::printf("  %-28s %s: %s\n", row.name, row.figure, row.caption);
  }
}

void run(const Row& row) {
  const char* rule =
      "================================================================";
  std::printf("\n%s\n%s — %s\n%s\n", rule, row.figure, row.caption, rule);
  std::filesystem::create_directories(kOutputDir);
  CsvWriter csv(std::string(kOutputDir) + "/" + row.name + ".csv",
                row.columns);
  row.report(csv, row.horizon);
  if (!row.quotes_csv_path) std::printf("CSV: %s\n", csv.path().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_help();
      return 0;
    }
    const auto it =
        std::find_if(kRows.begin(), kRows.end(), [&](const Row& row) {
          return std::strcmp(row.name, argv[i]) == 0;
        });
    if (it == kRows.end()) {
      std::fprintf(stderr, "bench_paper: unknown row '%s' (see --help)\n",
                   argv[i]);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Row& row : kRows) selected.push_back(&row);
  }
  for (const Row* row : selected) run(*row);
  return 0;
}
