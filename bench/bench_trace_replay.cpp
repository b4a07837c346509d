// Production-trace replay bench: how much do the Poisson and MMPP
// abstractions mispredict against a SWIM/Facebook-style trace at the same
// mean rate?
//
// For each scheduler x rate cell the same 12-node cluster serves three
// arrival processes — homogeneous Poisson, 2-state MMPP, and a streamed
// replay of a ProductionTraceGenerator trace (diurnal sinusoid x burst
// chain x heavy-tailed sizes x Zipf users) generated at the same
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
// Output: bench_out/trace_replay.csv (aggregate rows tenant="all", plus
// per-tenant rows for the trace cells) + stdout tables. Full mode ends
// with a >=100k-job streaming-replay scale demonstration (bounded arrival
// buffer: the driver holds only the lookahead window, never the whole
// trace). PNATS_QUICK=1 shrinks the grid/horizon, skips the scale demo
// and writes bench_out/trace_replay_quick.csv.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "mrs/workload/trace_gen.hpp"

namespace {

using namespace mrs;

constexpr double kJobScale = 0.05;
constexpr std::size_t kNodes = 12;
constexpr std::size_t kTraceUsers = 6;

bool quick() {
  const char* env = std::getenv("PNATS_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

struct Grid {
  std::vector<double> rates;
  Seconds duration;
  Seconds warmup;
  const char* csv_path;
};

Grid grid() {
  if (quick()) {
    return {{300.0, 600.0}, 300.0, 50.0, "bench_out/trace_replay_quick.csv"};
  }
  return {{150.0, 300.0, 450.0, 600.0, 750.0, 900.0},
          600.0,
          100.0,
          "bench_out/trace_replay.csv"};
}

enum class Process { kPoisson, kMmpp, kTrace };

const char* to_string(Process p) {
  switch (p) {
    case Process::kPoisson: return "poisson";
    case Process::kMmpp: return "mmpp";
    case Process::kTrace: return "trace";
  }
  return "?";
}

// The trace generator at bench scale: one diurnal cycle inside the
// measurement window and burst sojourns short enough that every cell sees
// several episodes. Mix scale matches the Poisson/MMPP cells so only the
// arrival-clock shape differs.
workload::TraceGenConfig trace_gen_config(double rate, Seconds duration) {
  workload::TraceGenConfig cfg;
  cfg.duration = duration;
  cfg.mean_rate_per_hour = rate;
  cfg.diurnal_period = duration;
  cfg.mean_calm_sojourn = 150.0;
  cfg.mean_burst_sojourn = 60.0;
  cfg.users = kTraceUsers;
  cfg.mix.map_count_scale = kJobScale;
  cfg.mix.reduce_count_scale = kJobScale;
  return cfg;
}

std::string trace_path_for(double rate) {
  return (std::filesystem::temp_directory_path() /
          strf("pnats_trace_replay_%.0f.csv", rate))
      .string();
}

driver::StreamConfig cell_config(Process process, driver::SchedulerKind sched,
                                 double rate, const Grid& g) {
  driver::StreamConfig cfg;
  // Dummy batch: the stream overwrites base.jobs with the arrivals.
  cfg.base = driver::paper_config(
      workload::table2_batch(mapreduce::JobKind::kWordcount), sched,
      bench::kSeed);
  cfg.base.nodes = kNodes;
  cfg.arrivals.rate_per_hour = rate;
  cfg.arrivals.duration = g.duration;
  cfg.arrivals.mix.map_count_scale = kJobScale;
  cfg.arrivals.mix.reduce_count_scale = kJobScale;
  cfg.warmup = g.warmup;
  switch (process) {
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
  return cfg;
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

// Full mode only: stream a >=100k-job generated trace end to end. The
// point is the arrival-buffer profile, not the schedule: the buffered
// path would materialise every Arrival up front (StreamResult::arrivals),
// the streamed path holds only the lookahead window — the resident set is
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
    workload::ProductionTraceGenerator gen(gcfg, Rng(bench::kSeed));
    rows = workload::write_arrival_trace(path, gen);
  }
  std::printf("\nscale demo: generated %zu-job trace (%.1f MiB on disk)\n",
              rows, std::filesystem::file_size(path) / (1024.0 * 1024.0));

  driver::StreamConfig cfg;
  cfg.base = driver::paper_config(
      workload::table2_batch(mapreduce::JobKind::kWordcount),
      driver::SchedulerKind::kPna, bench::kSeed);
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

}  // namespace

int main() {
  bench::print_header("Production trace replay",
                      "knees and per-tenant tails: streamed generated-trace "
                      "replay vs Poisson and MMPP at the same mean rate");
  std::filesystem::create_directories(bench::kOutputDir);
  const Grid g = grid();

  // One shared trace file per rate, drained from the generator through the
  // canonical writer so the replay path is file -> TraceStreamReader.
  for (double rate : g.rates) {
    workload::ProductionTraceGenerator gen(trace_gen_config(rate, g.duration),
                                           Rng(bench::kSeed));
    (void)workload::write_arrival_trace(trace_path_for(rate), gen);
  }

  const std::vector<Process> processes = {Process::kPoisson, Process::kMmpp,
                                          Process::kTrace};
  std::vector<driver::StreamConfig> configs;
  for (Process p : processes) {
    for (auto sched : bench::schedulers()) {
      for (double rate : g.rates) {
        configs.push_back(cell_config(p, sched, rate, g));
      }
    }
  }

  const auto results = driver::run_stream_experiments(configs);
  for (double rate : g.rates) std::filesystem::remove(trace_path_for(rate));

  CsvWriter csv(g.csv_path,
                {"process", "scheduler", "rate_per_hour", "tenant",
                 "offered_jobs_per_hour", "goodput_jobs_per_hour",
                 "response_p50_s", "response_p95_s", "response_p99_s",
                 "queueing_p99_s", "mean_jobs_in_system",
                 "map_slot_utilization", "drained"});

  std::size_t i = 0;
  std::size_t csv_rows = 0;
  for (Process p : processes) {
    for (auto sched : bench::schedulers()) {
      std::printf("\n[%s] %-13s %9s %9s %8s %8s %8s %7s\n", to_string(p),
                  driver::to_string(sched), "offered/h", "goodput/h", "p50",
                  "p95", "p99", "maputil");
      for (double rate : g.rates) {
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
        ++csv_rows;
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
          ++csv_rows;
        }
      }
    }
  }

  // Per-tenant p99 spread at the mid-grid rate for the trace process: the
  // Zipf-heavy user 0 should pay the widest tail.
  const double report_rate = g.rates[g.rates.size() / 2];
  std::printf("\n[trace] per-tenant response p99 at rate %.0f/h:\n",
              report_rate);
  i = 2 * bench::schedulers().size() * g.rates.size();  // trace block start
  for (std::size_t s = 0; s < bench::schedulers().size(); ++s) {
    for (std::size_t ri = 0; ri < g.rates.size(); ++ri) {
      if (g.rates[ri] != report_rate) continue;
      const auto& ss = results[i + s * g.rates.size() + ri].steady;
      std::printf("  %-13s", driver::to_string(bench::schedulers()[s]));
      for (const auto& t : ss.tenants) {
        std::printf("  t%zu %6.1fs", t.tenant.value(), t.response_time.p99);
      }
      std::printf("\n");
    }
  }

  if (!quick()) scale_demo(csv);
  std::printf("\nwrote %s (%zu rows%s)\n", g.csv_path, csv_rows,
              quick() ? "" : " + scale demo row");
  return 0;
}
