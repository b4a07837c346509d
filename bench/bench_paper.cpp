// The paper's evaluation (Table II-III, Figs. 3-7, the Sec. III P_min
// selection) plus the ablations and extras, from one table with a row per
// figure. Each row prints the reproduced rows/series (ASCII CDFs for
// figures) and writes bench_out/<row>.csv.
//
//   bench_paper                      every row, in table order
//   bench_paper fig4_jct_cdf ...     just the named rows
//   bench_paper --help               the row list
//
// Figs. 4-7, Table III and the running-tasks timeline post-process the same
// nine runs: the Wordcount / Terasort / Grep batches of Table II, each under
// the Fair, Coupling and Probabilistic schedulers. They are simulated at
// most once per invocation, on first use. Sweeping rows run their configs
// concurrently through driver::run_experiments; results are deterministic
// per config, so the output does not depend on the thread count.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/stats.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/common/table.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/metrics/summary.hpp"

namespace {

using namespace mrs;
using driver::SchedulerKind;

// --- shared scaffolding -----------------------------------------------------

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
  auto cfg = driver::paper_config(std::move(jobs), kind, bench::kSeed);
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
  dfs::BlockPlacer placer(&topo, Rng(bench::kSeed).split("placement"));
  return workload::make_batch(workload::table2_catalog(), store, placer,
                              wcfg);
}

std::vector<std::pair<std::string, const Cdf*>> scheduler_series(
    const std::map<SchedulerKind, Cdf>& cdfs) {
  std::vector<std::pair<std::string, const Cdf*>> series;
  for (auto kind : bench::schedulers()) {
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
  for (auto sched : bench::schedulers()) {
    for (auto batch : batches) {
      cfgs.push_back(driver::paper_config(workload::table2_batch(batch),
                                          sched, bench::kSeed));
    }
  }
  const auto results = driver::run_experiments(cfgs);

  PaperRuns runs;
  auto r = results.begin();
  for (auto sched : bench::schedulers()) {
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
void table2_workload(CsvWriter& csv) {
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
void fig3_datasize_cdf(CsvWriter& csv) {
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
void fig4_jct_cdf(CsvWriter& csv) {
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
  for (auto kind : bench::schedulers()) {
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

  for (auto kind : bench::schedulers()) {
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
void fig5_reduction(CsvWriter& csv) {
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
void fig6_task_cdf(CsvWriter& csv) {
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
    for (auto kind : bench::schedulers()) {
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
    for (auto kind : bench::schedulers()) {
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
void table3_locality(CsvWriter& csv) {
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
  for (auto kind : bench::schedulers()) {
    std::printf("%-14s %9.2f%% %9.2f%%\n", driver::to_string(kind),
                maps_only[kind].node_local_pct,
                reduces_only[kind].node_local_pct);
  }

  for (auto kind : bench::schedulers()) {
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
void fig7_locality_vs_size(CsvWriter& csv) {
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
    for (auto kind : bench::schedulers()) {
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
void pmin_sweep(CsvWriter& csv) {
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
void ablation_probability_model(CsvWriter& csv) {
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
void ablation_estimator(CsvWriter& csv) {
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
void ablation_netcond(CsvWriter& csv) {
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
void extended_baselines(CsvWriter& csv) {
  const auto jobs = catalog_jobs({0, 2, 10, 12, 20, 22});
  std::vector<driver::ExperimentConfig> cfgs;
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kFair,
                    SchedulerKind::kCoupling, SchedulerKind::kLarts,
                    SchedulerKind::kMinCost, SchedulerKind::kPna}) {
    cfgs.push_back(driver::paper_config(jobs, kind, bench::kSeed));
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
void fault_tolerance(CsvWriter& csv) {
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
void running_tasks(CsvWriter& csv) {
  constexpr Seconds kStep = 5.0;
  std::size_t peak = 0;
  std::map<SchedulerKind, std::vector<metrics::TimelinePoint>> map_tl,
      red_tl;
  for (auto kind : bench::schedulers()) {
    const auto& result = paper_runs().wordcount.at(kind);
    map_tl[kind] = metrics::running_tasks_timeline(
        result.task_records, metrics::TaskFilter::kMapsOnly, kStep);
    red_tl[kind] = metrics::running_tasks_timeline(
        result.task_records, metrics::TaskFilter::kReducesOnly, kStep);
    peak = std::max(peak, metrics::summarize_timeline(map_tl[kind])
                              .peak_running);
  }

  std::printf("running MAP tasks (height scaled to peak %zu):\n", peak);
  for (auto kind : bench::schedulers()) {
    std::printf("%-14s %s\n", driver::to_string(kind),
                render_row(map_tl[kind], 64, peak).c_str());
  }

  std::printf("\n%-14s %12s %10s %14s %12s\n", "scheduler", "mean maps",
              "peak maps", "mean reduces", "peak reduces");
  for (auto kind : bench::schedulers()) {
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
void ablation_slowstart(CsvWriter& csv) {
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

// --- the table --------------------------------------------------------------

struct Row {
  const char* name;  ///< command-line name and CSV stem
  const char* figure;
  const char* caption;
  std::vector<std::string> columns;  ///< CSV header
  void (*report)(CsvWriter&);
  /// The report quotes the CSV path in its own notes, so the closing
  /// "CSV: <path>" line is left out.
  bool quotes_csv_path = false;
};

const std::vector<Row> kRows = {
    {"table2_workload", "Table II", "the 30 benchmark jobs",
     {"job_id", "name", "maps", "reduces", "input_gib", "shuffle_gib"},
     table2_workload, true},
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
};

void print_help() {
  std::printf(
      "usage: bench_paper [row ...]\n"
      "Reproduces the paper's tables and figures. With no rows, runs every\n"
      "row in the order below; each prints its report and writes\n"
      "%s/<row>.csv.\n\nrows:\n",
      bench::kOutputDir);
  for (const Row& row : kRows) {
    std::printf("  %-28s %s: %s\n", row.name, row.figure, row.caption);
  }
}

void run(const Row& row) {
  bench::print_header(row.figure, row.caption);
  std::filesystem::create_directories(bench::kOutputDir);
  CsvWriter csv(std::string(bench::kOutputDir) + "/" + row.name + ".csv",
                row.columns);
  row.report(csv);
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
