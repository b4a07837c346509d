// Workload definitions, untraced passes and output checks.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unistd.h>

#include "mrs/common/strfmt.hpp"
#include "mrs/metrics/steady_state.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace mrs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Table II counts scaled like JobMixConfig::map_count_scale does.
std::vector<workload::JobDescription> scaled(
    std::vector<workload::JobDescription> jobs, double scale) {
  for (auto& j : jobs) {
    const auto shrink = [scale](std::size_t n) {
      return static_cast<std::size_t>(
          std::max(1.0, std::round(static_cast<double>(n) * scale)));
    };
    j.map_count = shrink(j.map_count);
    j.reduce_count = shrink(j.reduce_count);
    j.nominal_gb *= scale;
  }
  return jobs;
}

// §III setup: 60 nodes in one rack, 4+2 slots, replication 2, P_min 0.4,
// background cross-traffic and load-aware distances; the Grep batch at
// paper scale.
Workload paper_batch(std::uint64_t seed, Size size) {
  Workload w;
  w.kind = WorkloadKind::kPaperBatch;
  auto jobs = workload::table2_batch(mapreduce::JobKind::kGrep);
  if (size == Size::kTiny) jobs = scaled(std::move(jobs), 0.02);
  w.config = driver::paper_config(std::move(jobs),
                                  driver::SchedulerKind::kPna, seed);
  if (size == Size::kTiny) w.config.nodes = 12;
  return w;
}

// The 30-job catalog at ~12% on a k=16 fat-tree (1024 hosts) with hop
// distances, jobs 10 s apart: the fixed list keeps flow concurrency, and so
// flow-solver cost, the same for every seed.
Workload fattree_batch(std::uint64_t seed, Size size) {
  Workload w;
  w.kind = WorkloadKind::kFattreeBatch;
  auto jobs = workload::table2_catalog();
  std::size_t k = 16;
  double scale = 0.12;
  if (size == Size::kTiny) {
    jobs.resize(6);
    k = 4;
    scale = 0.02;
  }
  w.config = driver::paper_config(scaled(std::move(jobs), scale),
                                  driver::SchedulerKind::kPna, seed);
  w.config.fat_tree_k = k;
  w.config.nodes = k * k * k / 4;
  w.config.background = net::BackgroundTrafficConfig{};
  w.config.distance_mode = driver::DistanceMode::kHops;
  w.config.workload.submit_spacing = 10.0;
  return w;
}

// Streamed replay of a generated production trace: 8 users as tenants,
// 1%-scale jobs, 2000 jobs/h mean over 8 h with one diurnal cycle over the
// horizon and short burst sojourns, so offered load barely moves with the
// seed. Open loop, below the knee.
Workload trace_replay(std::uint64_t seed, Size size,
                      const std::string& tmp_dir) {
  Workload w;
  w.kind = WorkloadKind::kTraceReplay;
  const bool tiny = size == Size::kTiny;
  w.gen.duration = (tiny ? 1.0 : 8.0) * 3600.0;
  w.gen.mean_rate_per_hour = tiny ? 400.0 : 2000.0;
  w.gen.diurnal_period = w.gen.duration;
  w.gen.mean_calm_sojourn = 600.0;
  w.gen.mean_burst_sojourn = 120.0;
  w.gen.users = 8;
  w.gen.mix.map_count_scale = 0.01;
  w.gen.mix.reduce_count_scale = 0.01;
  w.warmup = tiny ? 600.0 : 3600.0;

  w.config = driver::paper_config({}, driver::SchedulerKind::kPna, seed);
  w.config.nodes = tiny ? 12 : 24;
  // As driver::run_stream_experiment does: injectors stay armed over the
  // whole arrival horizon (both are disabled here; kept for parity).
  w.config.failures.arm_horizon =
      std::max(w.config.failures.arm_horizon, w.gen.duration);
  w.config.net_faults.arm_horizon =
      std::max(w.config.net_faults.arm_horizon, w.gen.duration);

  std::filesystem::create_directories(tmp_dir);
  w.trace_path = (std::filesystem::path(tmp_dir) /
                  strf("trace-replay-%llu-%ld.csv",
                       static_cast<unsigned long long>(seed),
                       static_cast<long>(::getpid())))
                     .string();
  workload::ProductionTraceGenerator gen(w.gen, Rng(seed));
  w.jobs_submitted = workload::write_arrival_trace(w.trace_path, gen);
  return w;
}

// FNV-1a over the exact bits of each field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t record_digest(const driver::ExperimentResult& run) {
  Digest d;
  d.add(static_cast<std::uint64_t>(run.events_processed));
  for (const auto& j : run.job_records) {
    d.add(static_cast<std::uint64_t>(j.id.value()));
    d.add(j.name);
    d.add(static_cast<std::uint64_t>(j.kind));
    d.add(static_cast<std::uint64_t>(j.tenant.value()));
    d.add(static_cast<std::uint64_t>(j.map_count));
    d.add(static_cast<std::uint64_t>(j.reduce_count));
    d.add(j.input_bytes);
    d.add(j.shuffle_bytes);
    d.add(j.submit_time);
    d.add(j.finish_time);
    d.add(static_cast<std::uint64_t>(j.aborted));
  }
  for (const auto& t : run.task_records) {
    d.add(static_cast<std::uint64_t>(t.job.value()));
    d.add(static_cast<std::uint64_t>(t.kind));
    d.add(static_cast<std::uint64_t>(t.is_map));
    d.add(static_cast<std::uint64_t>(t.index));
    d.add(static_cast<std::uint64_t>(t.node.value()));
    d.add(static_cast<std::uint64_t>(t.locality));
    d.add(t.assigned_at);
    d.add(t.finished_at);
    d.add(t.placement_cost);
    d.add(t.network_bytes);
    d.add(static_cast<std::uint64_t>(t.attempts));
  }
  return d.value();
}

double timer_seconds(const telemetry::Snapshot& s, const std::string& name) {
  for (const auto& t : s.timers) {
    if (t.name == name) return static_cast<double>(t.total_ns) * 1e-9;
  }
  return 0.0;
}

double proc_status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string k;
  while (in >> k) {
    if (k == key) {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-batch", "fattree-batch", "trace-replay"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed, Size size,
                       const std::string& tmp_dir) {
  Workload w;
  if (name == "paper-batch") {
    w = paper_batch(seed, size);
  } else if (name == "fattree-batch") {
    w = fattree_batch(seed, size);
  } else if (name == "trace-replay") {
    w = trace_replay(seed, size, tmp_dir);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  w.name = std::string(name);
  w.config.flow_solver_threads = 1;
  if (!w.streamed()) w.jobs_submitted = w.config.jobs.size();
  return w;
}

void remove_inputs(const Workload& w) {
  if (!w.trace_path.empty()) std::filesystem::remove(w.trace_path);
}

Outcome summarize(const Workload& w, const driver::ExperimentResult& run) {
  Outcome o;
  o.makespan_s = run.makespan;
  std::size_t node_local = 0, maps = 0;
  double bytes = 0.0;
  for (const auto& t : run.task_records) {
    bytes += t.network_bytes;
    if (!t.is_map) continue;
    ++maps;
    if (t.locality == mapreduce::Locality::kNodeLocal) ++node_local;
  }
  o.network_gb = bytes * 1e-9;
  double data = 0.0;
  for (const auto& j : run.job_records) data += j.input_bytes + j.shuffle_bytes;
  o.data_gb = data * 1e-9;
  o.map_node_local_pct =
      maps > 0 ? 100.0 * static_cast<double>(node_local) /
                     static_cast<double>(maps)
               : 0.0;

  if (w.streamed()) {
    const auto& n = w.config.node;
    const auto ss = metrics::steady_state_summary(
        run.job_records, run.task_records,
        metrics::Window{w.warmup, w.gen.duration},
        w.config.nodes * n.map_slots, w.config.nodes * n.reduce_slots,
        run.admission_outcomes);
    o.response_p50_s = ss.response_time.p50;
    o.goodput_jobs_per_h = ss.throughput_jobs_per_hour;
  } else {
    std::vector<double> jct;
    jct.reserve(run.job_records.size());
    for (const auto& j : run.job_records) {
      if (!j.aborted && j.finish_time >= j.submit_time) {
        jct.push_back(j.completion_time());
      }
    }
    o.response_p50_s = metrics::summarize_percentiles(jct).p50;
    o.goodput_jobs_per_h =
        run.makespan > 0.0
            ? 3600.0 * static_cast<double>(jct.size()) / run.makespan
            : 0.0;
  }
  return o;
}

void check_outputs(const Workload& w, const driver::ExperimentResult& run,
                   Outcome& o) {
  o.submitted = w.jobs_submitted;
  o.rejected = run.jobs_rejected;
  o.drained = run.completed;
  o.events = run.events_processed;
  o.task_records = run.task_records.size();
  std::size_t tasks_expected = 0;
  for (const auto& j : run.job_records) {
    if (j.aborted) {
      ++o.aborted;
    } else if (j.finish_time < j.submit_time) {
      ++o.unfinished;
    } else {
      ++o.completed;
    }
    tasks_expected += j.map_count + j.reduce_count;
  }
  o.digest = record_digest(run);

  auto fail = [&o](std::string msg) { o.failures.push_back(std::move(msg)); };
  if (!o.drained) fail("run did not drain");
  if (o.completed + o.rejected + o.aborted + o.unfinished != o.submitted) {
    fail(strf("job accounting: completed %zu + rejected %zu + aborted %zu "
              "+ unfinished %zu != submitted %zu",
              o.completed, o.rejected, o.aborted, o.unfinished,
              o.submitted));
  }
  if (o.aborted != run.jobs_aborted) {
    fail(strf("aborted records %zu != engine count %zu", o.aborted,
              run.jobs_aborted));
  }
  // Without aborts every task of every job finishes exactly once.
  if (o.aborted == 0 && tasks_expected != o.task_records) {
    fail(strf("task records %zu != map+reduce tasks of all jobs %zu",
              o.task_records, tasks_expected));
  }
  if (o.completed > 0 && !(o.makespan_s > 0.0)) fail("makespan not positive");
}

UntracedPass run_untraced(const Workload& w) {
  driver::ExperimentResult run;
  if (w.streamed()) {
    workload::TraceStreamReader reader(w.trace_path, w.gen.duration);
    run = driver::run_experiment_streamed(w.config, reader, w.lookahead);
  } else {
    run = driver::run_experiment(w.config);
  }
  UntracedPass p;
  const auto t0 = Clock::now();
  p.outcome = summarize(w, run);
  p.summary_s = seconds_since(t0);
  p.run_s = timer_seconds(run.telemetry, "driver.run_wall") + p.summary_s;
  check_outputs(w, run, p.outcome);
  return p;
}

double rss_mib() { return proc_status_mib("VmRSS:"); }
double peak_rss_mib() { return proc_status_mib("VmHWM:"); }

}  // namespace perfbench
