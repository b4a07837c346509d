// pnats_sim — command-line front end for the simulator.
//
// Runs a Table II batch, or an open-loop job stream, under a chosen
// scheduler and prints a summary; optionally persists the full task/job
// records for offline analysis. Every flag is one row of the table in
// main(): the parser, `pnats_sim --help` and the defaults it shows all
// come from those rows, and most rows bind a field of the run's config.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "mrs/common/log.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/driver/experiment.hpp"
#include "mrs/driver/result_io.hpp"
#include "mrs/driver/stream_experiment.hpp"
#include "mrs/metrics/summary.hpp"
#include "mrs/workload/trace_gen.hpp"

namespace {

using namespace mrs;

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: pnats_sim [options] (pnats_sim --help lists "
               "them)\n",
               message.c_str());
  std::exit(2);
}

/// The whole of `text` as a T: no sign on unsigned targets, no trailing
/// junk, finite doubles only.
template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) fail(strf("%s: bad number '%s'", flag.c_str(), text.c_str()));
  return value;
}

double parse_positive(const std::string& flag, const std::string& text) {
  const double v = parse_number<double>(flag, text);
  if (v <= 0.0) fail(flag + ": values must be > 0");
  return v;
}

/// Split "a,b,c" on commas (no escaping; empty fields preserved).
std::vector<std::string> split_list(const std::string& s, char sep = ',') {
  std::vector<std::string> out(1);
  for (char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

/// Named values of one choice flag; the first name of a value is the one
/// --help shows as its default.
template <class V>
using Choices = std::vector<std::pair<const char*, V>>;

template <class V, class T>
const char* name_of(const Choices<V>& choices, const T& value) {
  for (const auto& [name, v] : choices) {
    if (value == v) return name;
  }
  return "";
}

template <class V>
V lookup(const std::string& flag, const Choices<V>& choices,
         const std::string& text) {
  for (const auto& [name, v] : choices) {
    if (text == name) return v;
  }
  fail(strf("%s: unknown value '%s'", flag.c_str(), text.c_str()));
}

template <class V>
std::string joined_names(const Choices<V>& choices) {
  std::string out;
  for (const auto& [name, v] : choices) {
    out += (out.empty() ? "" : "|") + std::string(name);
  }
  return out;
}

enum class Batch { kWordcount, kTerasort, kGrep, kAll, kMixed };

std::vector<workload::JobDescription> batch_jobs(Batch batch) {
  using mapreduce::JobKind;
  switch (batch) {
    case Batch::kWordcount: return workload::table2_batch(JobKind::kWordcount);
    case Batch::kTerasort: return workload::table2_batch(JobKind::kTerasort);
    case Batch::kGrep: return workload::table2_batch(JobKind::kGrep);
    case Batch::kAll: return workload::table2_catalog();
    case Batch::kMixed: break;
  }
  std::vector<workload::JobDescription> jobs;
  const auto& cat = workload::table2_catalog();
  for (int i : {0, 2, 10, 12, 20, 22}) jobs.push_back(cat[i]);
  return jobs;
}

const Choices<Batch> kBatches = {{"wordcount", Batch::kWordcount},
                                 {"terasort", Batch::kTerasort},
                                 {"grep", Batch::kGrep},
                                 {"all", Batch::kAll},
                                 {"mixed", Batch::kMixed}};
const Choices<driver::SchedulerKind> kSchedulers = {
    {"fifo", driver::SchedulerKind::kFifo},
    {"fair", driver::SchedulerKind::kFair},
    {"coupling", driver::SchedulerKind::kCoupling},
    {"larts", driver::SchedulerKind::kLarts},
    {"mincost", driver::SchedulerKind::kMinCost},
    {"probabilistic", driver::SchedulerKind::kPna},
    {"pna", driver::SchedulerKind::kPna},
    {"unrelated", driver::SchedulerKind::kUnrelated}};
const Choices<dfs::PlacementPolicy> kPlacements = {
    {"hdfs", dfs::PlacementPolicy::kHdfsDefault},
    {"random", dfs::PlacementPolicy::kRandom},
    {"skewed", dfs::PlacementPolicy::kSkewed}};
const Choices<driver::DistanceMode> kDistances = {
    {"hops", driver::DistanceMode::kHops},
    {"inverse-rate", driver::DistanceMode::kInverseRate},
    {"weighted", driver::DistanceMode::kWeightedPerLink},
    {"load-aware", driver::DistanceMode::kLoadAware}};
const Choices<control::AdmissionPolicyKind> kAdmissions = {
    {"always-admit", control::AdmissionPolicyKind::kAlwaysAdmit},
    {"static-threshold", control::AdmissionPolicyKind::kStaticThreshold},
    {"token-bucket", control::AdmissionPolicyKind::kTokenBucket},
    {"adaptive", control::AdmissionPolicyKind::kAdaptive}};
const Choices<LogLevel> kLogLevels = {{"trace", LogLevel::kTrace},
                                      {"debug", LogLevel::kDebug},
                                      {"info", LogLevel::kInfo},
                                      {"warn", LogLevel::kWarn},
                                      {"off", LogLevel::kOff}};
const Choices<workload::ArrivalProcess> kTenantProcesses = {
    {"poisson", workload::ArrivalProcess::kPoisson},
    {"mmpp", workload::ArrivalProcess::kMmpp}};
const Choices<workload::ArrivalProcess> kArrivals = {
    {"poisson", workload::ArrivalProcess::kPoisson},
    {"mmpp", workload::ArrivalProcess::kMmpp},
    {"trace", workload::ArrivalProcess::kTrace}};
const Choices<mapreduce::JobOrder> kFairOrders = {
    {"fair", mapreduce::JobOrder::kFair},
    {"weighted", mapreduce::JobOrder::kWeightedFair}};
const Choices<hetero::AssignMode> kClassAssigns = {
    {"weighted", hetero::AssignMode::kWeighted},
    {"by-rack", hetero::AssignMode::kByRack}};

/// One command-line flag. A row with an empty name is a --help heading.
struct Flag {
  std::string name;     ///< "--nodes"
  std::string metavar;  ///< empty: a switch that takes no value
  std::string help;
  std::string dflt;  ///< shown as "(default X)"; empty: none
  std::function<void(const std::string&)> set;
};

Flag section(const char* title) { return {"", "", title, "", nullptr}; }

template <class T>
Flag num(const char* name, const char* metavar, const char* help, T& field) {
  std::string dflt;
  if constexpr (std::is_floating_point_v<T>) {
    dflt = strf("%g", field);
  } else {
    dflt = std::to_string(field);
  }
  return {name, metavar, help, dflt, [name, &field](const std::string& s) {
            field = parse_number<T>(name, s);
          }};
}

Flag text(const char* name, const char* metavar, const char* help,
          std::string& field) {
  return {name, metavar, help, field,
          [&field](const std::string& s) { field = s; }};
}

Flag on(const char* name, const char* help, bool& field) {
  return {name, "", help, "", [&field](const std::string&) { field = true; }};
}

template <class T, class V>
Flag choice(const char* name, const char* help, T& field,
            const Choices<V>& choices) {
  return {name, joined_names(choices), help, name_of(choices, field),
          [name, &field, &choices](const std::string& s) {
            field = lookup(name, choices, s);
          }};
}

/// A comma-separated list, each item read by `parse(flag, item)`.
template <class T, class Parse>
Flag list(const char* name, const char* metavar, const char* help,
          std::vector<T>& field, Parse parse) {
  return {name, metavar, help, "",
          [name, &field, parse](const std::string& s) {
            field.clear();
            for (const auto& item : split_list(s)) {
              field.push_back(parse(name, item));
            }
          }};
}

Flag with_default(Flag flag, const char* dflt) {
  flag.dflt = dflt;
  return flag;
}

/// --help: one line per flag (the help wrapped under a 26-column gutter),
/// defaults as the bound fields hold them before parsing.
void print_help(const std::vector<Flag>& flags) {
  std::puts(
      "usage: pnats_sim [options]\n"
      "Runs a Table II batch, or an open-loop job stream with --arrivals or\n"
      "--tenants, under one scheduler and prints a summary.");
  constexpr std::size_t kGutter = 26, kWidth = 79;
  for (const auto& f : flags) {
    if (f.name.empty()) {
      std::printf("\n%s:\n", f.help.c_str());
      continue;
    }
    std::string line = "  " + f.name;
    if (!f.metavar.empty()) line += " " + f.metavar;
    if (line.size() >= kGutter) {
      std::puts(line.c_str());
      line.clear();
    }
    std::string help = f.help;
    if (!f.dflt.empty()) help += " (default " + f.dflt + ")";
    for (const auto& word : split_list(help, ' ')) {
      if (line.size() > kGutter && line.size() + 1 + word.size() > kWidth) {
        std::puts(line.c_str());
        line.clear();
      }
      line.resize(std::max(line.size() + 1, kGutter), ' ');
      line += word;
    }
    std::puts(line.c_str());
  }
  std::puts("  -h, --help              this text");
}

/// One --node-classes field, "name[:weight]" with weight > 0.
hetero::NodeClass parse_node_class(const std::string& flag,
                                   const std::string& field) {
  const auto colon = field.find(':');
  hetero::NodeClass cls;
  cls.name = field.substr(0, colon);
  if (cls.name.empty()) fail(flag + ": empty class name in '" + field + "'");
  if (colon != std::string::npos) {
    cls.weight = parse_number<double>(flag, field.substr(colon + 1));
  }
  if (cls.weight <= 0.0) {
    fail(flag + ": weight must be > 0 in '" + field + "'");
  }
  return cls;
}

/// One --class-slots field, "M/R" with M >= 1.
std::pair<std::size_t, std::size_t> parse_slots(const std::string& flag,
                                                const std::string& field) {
  const auto mr = split_list(field, '/');
  if (mr.size() != 2 || parse_number<std::size_t>(flag, mr[0]) < 1) {
    fail(flag + ": bad 'M/R' field '" + field + "' (M >= 1, R >= 0)");
  }
  return {parse_number<std::size_t>(flag, mr[0]),
          parse_number<std::size_t>(flag, mr[1])};
}

/// A per-tenant or per-class list, when given, needs one value each.
void want_n(const char* flag, std::size_t got, std::size_t n) {
  if (got != 0 && got != n) {
    fail(strf("%s needs %zu comma-separated values", flag, n));
  }
}

/// One line per node class: drawn composition plus executed-task counters
/// (the lazy hetero.class.* metrics; zero when a class never ran a task).
void print_class_summary(const driver::ExperimentResult& result) {
  for (const auto& c : result.node_classes) {
    const auto finished = [&](const char* what) {
      return static_cast<unsigned long long>(result.telemetry.counter(
          "hetero.class." + c.name + "." + what));
    };
    std::printf("  class %-10s nodes=%zu speed=%.2f slots=%zu/%zu "
                "link=%.2f maps=%llu reduces=%llu\n",
                c.name.c_str(), c.nodes, c.cpu_speed, c.map_slots,
                c.reduce_slots, c.link_scale, finished("maps_finished"),
                finished("reduces_finished"));
  }
}

/// One line of network-chaos counters (only when chaos or the stall
/// watchdog was on): what the injector did and how the engine degraded.
/// CI smokes grep the key=value pairs.
void print_chaos_summary(const driver::ExperimentResult& result,
                         const driver::ExperimentConfig& cfg) {
  if (!cfg.net_faults.enabled() && cfg.engine.stall_timeout <= 0.0) return;
  const auto c = [&](const char* name) {
    return static_cast<unsigned long long>(result.telemetry.counter(name));
  };
  std::printf("  chaos     links_cut=%llu switch_events=%llu "
              "surge_episodes=%llu stall_timeouts=%llu retries=%llu\n",
              c("net.fault.links_cut"), c("net.fault.switch_events"),
              c("net.surge.episodes"), c("engine.transfer.stall_timeouts"),
              c("engine.transfer.retries"));
}

/// Per-run critical-path blame aggregate (printed only when --trace-out
/// enabled the causal tracer). Shares are fractions of total response
/// time; "dom" counts jobs whose largest bucket is that one.
void print_critical_path_summary(const driver::ExperimentResult& result) {
  if (!result.tracing_enabled) return;
  const auto& cp = result.critical_path;
  if (cp.jobs == 0) return;
  std::printf("  critical-path n=%zu:", cp.jobs);
  for (std::size_t b = 0; b < trace::kBlameBuckets; ++b) {
    std::printf(" %s=%.1f%%(dom %zu)", trace::kBlameBucketNames[b],
                100.0 * cp.share(b), cp.dominant_count[b]);
  }
  std::printf("\n");
  for (const auto& t : cp.tenants) {
    std::printf("    %-12s n=%-5zu queue=%.1f%% network=%.1f%% "
                "compute=%.1f%% retry=%.1f%%\n",
                t.name.c_str(), t.jobs, 100.0 * t.share(0),
                100.0 * t.share(1), 100.0 * t.share(2), 100.0 * t.share(3));
  }
  for (const auto& c : cp.classes) {
    std::printf("    class %-6s n=%-5zu queue=%.1f%% network=%.1f%% "
                "compute=%.1f%% retry=%.1f%%\n",
                c.name.c_str(), c.jobs, 100.0 * c.share(0),
                100.0 * c.share(1), 100.0 * c.share(2), 100.0 * c.share(3));
  }
}

void print_breakdowns(const driver::ExperimentResult& result,
                      const driver::ExperimentConfig& cfg) {
  print_class_summary(result);
  print_chaos_summary(result, cfg);
  print_critical_path_summary(result);
}

/// Where the telemetry, Perfetto and causal-trace exporters wrote.
void print_exports(const driver::ExperimentResult& result,
                   const driver::ExperimentConfig& cfg) {
  if (!cfg.telemetry_path.empty()) {
    std::printf("telemetry written to %s (%zu samples)\n",
                cfg.telemetry_path.c_str(), result.samples.rows.size());
  }
  if (!cfg.perfetto_path.empty()) {
    std::printf("perfetto trace written to %s\n", cfg.perfetto_path.c_str());
  }
  if (!cfg.causal_trace_path.empty()) {
    std::printf("causal trace written to %s (%zu jobs, %zu decisions)\n",
                cfg.causal_trace_path.c_str(), result.job_traces.size(),
                result.decisions.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  driver::StreamConfig scfg;
  auto& cfg = scfg.base;
  cfg = driver::paper_config({}, driver::SchedulerKind::kPna);
  // Negative = unset: derived from other flags once they are all parsed.
  cfg.sample_period = -1.0;
  scfg.warmup = -1.0;
  workload::TraceGenConfig gcfg;

  // CLI-only state: what to run, and the lists applied after parsing.
  Batch batch = Batch::kMixed;
  std::string jobs_file, out_dir, gen_trace;
  std::optional<workload::ArrivalProcess> arrivals;
  LogLevel level = log_level();
  bool quiet = false;
  std::size_t tenants = 0;
  std::vector<double> tenant_rates, tenant_bursts, tenant_weights;
  std::vector<double> class_speeds, class_links, class_disks;
  std::vector<std::pair<std::size_t, std::size_t>> class_slots;
  std::vector<workload::ArrivalProcess> tenant_processes;
  const auto tenant_process = [](const std::string& flag,
                                 const std::string& s) {
    return lookup(flag, kTenantProcesses, s);
  };

  const std::vector<Flag> flags = {
      section("Workload, cluster and scheduler"),
      choice("--scheduler", "scheduler under test", cfg.scheduler,
             kSchedulers),
      choice("--batch", "Table II batch to run", batch, kBatches),
      text("--jobs-file", "CSV",
           "custom jobs (name,kind,maps,reduces); overrides --batch",
           jobs_file),
      num("--nodes", "N", "cluster size", cfg.nodes),
      num("--racks", "N", "topology racks", cfg.racks),
      num("--fat-tree", "K",
          "k-ary fat-tree topology (k even; k^3/4 hosts, overrides "
          "--nodes/--racks; 0 = off)",
          cfg.fat_tree_k),
      on("--naive-flow-solver", "reference full-scan max-min flow solver",
         cfg.naive_flow_solver),
      num("--flow-threads", "N", "worker threads for full flow recomputes",
          cfg.flow_solver_threads),
      num("--seed", "N", "root RNG seed", cfg.seed),
      num("--pmin", "X", "P_min threshold", cfg.pna.p_min),
      num("--cost-mix", "X",
          "PNA combined cost in [0, 1]: 0 = network bytes*distance only "
          "(the paper), 1 = compute seconds only, between = blend",
          cfg.pna.cost_mix),
      num("--replication", "N", "DFS replication factor",
          cfg.workload.replication),
      choice("--placement", "DFS block placement", cfg.workload.placement,
             kPlacements),
      choice("--distance", "distance matrix the schedulers see",
             cfg.distance_mode, kDistances),
      choice("--fair-order",
             "fair scheduler job order (weighted uses per-job weight "
             "deficits)",
             cfg.fair.job_order, kFairOrders),

      section("Task and node faults"),
      num("--straggler-p", "X", "per-attempt straggler probability",
          cfg.engine.fault.straggler_probability),
      on("--speculation", "enable speculative execution",
         cfg.engine.fault.speculative_execution),
      num("--mtbf", "SECONDS",
          "cluster MTBF for node failure injection; 0 = off",
          cfg.failures.cluster_mtbf),
      num("--repair-jitter", "X",
          "relative jitter on node repair times, in [0, 1)",
          cfg.failures.repair_jitter),
      num("--max-attempts", "N",
          "abort a job when a task loses N attempts to node failures; "
          "0 = never",
          cfg.engine.max_task_attempts),
      on("--blacklist", "enable node blacklisting on repeated failures",
         cfg.engine.blacklist.enabled),
      num("--blacklist-failures", "N",
          "failures within the window that list a node",
          cfg.engine.blacklist.failure_threshold),
      num("--probation", "S", "post-recovery unschedulable period",
          cfg.engine.blacklist.probation),

      section("Network chaos (docs/robustness.md)"),
      num("--link-mtbf", "S", "mean time between single-link cuts; 0 = off",
          cfg.net_faults.link_mtbf),
      num("--link-repair", "S", "link repair time",
          cfg.net_faults.link_repair_time),
      num("--switch-mtbf", "S",
          "mean time between switch faults cutting every link of a "
          "sampled switch; 0 = off",
          cfg.net_faults.switch_mtbf),
      num("--switch-repair", "S", "switch repair time",
          cfg.net_faults.switch_repair_time),
      num("--surge", "S",
          "mean time between background-traffic surges on a rack's "
          "uplinks; 0 = off",
          cfg.net_faults.surge_mtbf),
      num("--surge-duration", "S", "surge episode length",
          cfg.net_faults.surge_duration),
      num("--surge-util", "X", "extra utilization a surge adds",
          cfg.net_faults.surge_utilization),
      num("--net-repair-jitter", "X",
          "relative jitter on link/switch repairs",
          cfg.net_faults.repair_jitter),
      num("--stall-timeout", "S",
          "kill and retry transfers stalled at rate 0 for S seconds, with "
          "capped exponential backoff; 0 = off",
          cfg.engine.stall_timeout),

      section("Admission control"),
      choice("--admission", "admission policy", cfg.admission.policy,
             kAdmissions),
      num("--admission-threshold", "L",
          "backlog limit (jobs in system) for static-threshold; starting "
          "point for adaptive",
          cfg.admission.max_jobs_in_system),
      num("--admission-delay", "S",
          "static-threshold: defer when the queueing-delay EWMA exceeds S; "
          "0 = off",
          cfg.admission.max_queueing_delay),
      num("--admission-rate", "JOBS/H", "token-bucket refill rate",
          cfg.admission.bucket_rate_per_hour),
      num("--max-deferrals", "N", "deferral budget before a hard reject",
          cfg.admission.deferral.max_deferrals),

      section("Open-loop streams (steady-state metrics instead of a batch)"),
      choice("--arrivals",
             "stream Table II catalog jobs instead of running a batch",
             arrivals, kArrivals),
      num("--rate", "JOBS/H", "mean arrival rate",
          scfg.arrivals.rate_per_hour),
      num("--duration", "S", "arrival horizon in sim-seconds",
          scfg.arrivals.duration),
      with_default(num("--warmup", "S", "measurement window start",
                       scfg.warmup),
                   "duration/6"),
      text("--arrival-trace", "CSV",
           "trace to replay with --arrivals trace "
           "(time,name,kind,gb,maps,reduces,tenant,weight; legacy "
           "5/7-column files load too)",
           scfg.arrivals.trace_path),
      on("--stream-trace",
         "with --arrivals trace: read the time-sorted trace one record at "
         "a time instead of buffering every arrival",
         scfg.stream_trace),
      num("--job-scale", "X",
          "scale catalog map/reduce counts by X (streams and --gen-trace)",
          scfg.arrivals.mix.map_count_scale),

      section("Multi-tenant streams (imply --arrivals poisson)"),
      num("--tenants", "N",
          "tenants, each with its own arrival sub-stream (rate = --rate/N "
          "each unless --tenant-rates)",
          tenants),
      list("--tenant-rates", "A,B,...", "per-tenant jobs/hour", tenant_rates,
           parse_positive),
      list("--tenant-processes", "P,Q,...", "per-tenant poisson|mmpp",
           tenant_processes, tenant_process),
      list("--tenant-bursts", "A,B,...", "per-tenant MMPP burst multipliers",
           tenant_bursts, parse_positive),
      list("--tenant-weights", "A,B,...", "per-tenant fair-share weights",
           tenant_weights, parse_positive),
      list("--tenant-quotas", "A,B,...",
           "admission quota weights: tenant t may hold at most "
           "admission-threshold * w_t / sum(w) jobs in system (omit = off)",
           cfg.admission.tenant_quota_weights, parse_positive),

      section("Synthetic production trace"),
      text("--gen-trace", "CSV",
           "write a SWIM-style trace (diurnal + bursty intensity, "
           "heavy-tailed sizes, Zipf users as tenants) and exit; "
           "--rate/--duration/--job-scale/--seed shape it",
           gen_trace),
      num("--gen-users", "N", "synthetic user population", gcfg.users),
      num("--gen-diurnal", "X", "diurnal amplitude in [0, 1)",
          gcfg.diurnal_amplitude),
      num("--gen-burst", "X", "burst-episode rate multiplier (>= 1)",
          gcfg.burst_rate_multiplier),
      num("--gen-sigma", "X", "lognormal size-jitter sigma",
          gcfg.mix.size_jitter_sigma),

      section("Heterogeneous node classes (lists follow --node-classes "
              "order)"),
      list("--node-classes", "NAME:W,...",
           "class names and assignment weights (omit = homogeneous)",
           cfg.hetero.classes, parse_node_class),
      list("--class-speeds", "A,B,...", "per-class CPU speed factors",
           class_speeds, parse_positive),
      list("--class-slots", "M/R,...", "per-class map/reduce slot counts",
           class_slots, parse_slots),
      list("--class-links", "A,B,...", "per-class NIC capacity scale",
           class_links, parse_positive),
      list("--class-disks", "A,B,...", "per-class local disk rate in MiB/s",
           class_disks, parse_positive),
      choice("--class-assign",
             "weighted draw, or by-rack (class = rack % classes)",
             cfg.hetero.assign, kClassAssigns),

      section("Output"),
      text("--out", "DIR", "save records under DIR (result_io format)",
           out_dir),
      text("--trace", "CSV", "write an execution trace CSV", cfg.trace_path),
      text("--telemetry-out", "JSONL",
           "write telemetry (sampled time-series + final metric snapshot)",
           cfg.telemetry_path),
      text("--perfetto-out", "JSON",
           "write a Chrome trace-event timeline (ui.perfetto.dev)",
           cfg.perfetto_path),
      with_default(num("--sample-period", "S",
                       "gauge sampling period in sim-seconds",
                       cfg.sample_period),
                   "10 with --telemetry-out/--perfetto-out, else 0"),
      text("--trace-out", "JSONL",
           "write the causal trace (span trees, placement decisions, "
           "critical-path blame; docs/tracing.md)",
           cfg.causal_trace_path),
      on("--sample-node-slots",
         "add per-node busy/free slot columns to the sampled time-series",
         cfg.sample_node_slots),
      choice("--log-level", "process-wide logger threshold", level,
             kLogLevels),
      on("--quiet", "summary lines only", quiet),
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(flags);
      return 0;
    }
    const Flag* flag = nullptr;
    for (const auto& f : flags) {
      if (!f.name.empty() && f.name == arg) flag = &f;
    }
    if (flag == nullptr) fail("unknown option '" + arg + "'");
    if (flag->metavar.empty()) {
      flag->set("");
    } else if (i + 1 < argc) {
      flag->set(argv[++i]);
    } else {
      fail(arg + " needs a value");
    }
  }
  set_log_level(level);

  // Cross-flag validation of what was parsed.
  cfg.jobs = jobs_file.empty() ? batch_jobs(batch)
                               : workload::load_jobs_csv(jobs_file);
  if (cfg.fat_tree_k != 0) {
    if (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0) {
      fail("--fat-tree K must be even and >= 2");
    }
    // A k-ary fat-tree has exactly k^3/4 hosts; derive the node count so
    // slot accounting matches the topology.
    cfg.nodes = cfg.fat_tree_k * cfg.fat_tree_k * cfg.fat_tree_k / 4;
  }
  if (cfg.pna.cost_mix < 0.0 || cfg.pna.cost_mix > 1.0) {
    fail("--cost-mix must be in [0, 1]");
  }
  auto& classes = cfg.hetero.classes;
  if (classes.empty()) {
    if (!class_speeds.empty() || !class_slots.empty() ||
        !class_links.empty() || !class_disks.empty()) {
      fail("--class-* flags require --node-classes");
    }
  } else {
    const std::size_t n = classes.size();
    want_n("--class-speeds", class_speeds.size(), n);
    want_n("--class-links", class_links.size(), n);
    want_n("--class-disks", class_disks.size(), n);
    want_n("--class-slots", class_slots.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!class_speeds.empty()) classes[i].cpu_speed = class_speeds[i];
      if (!class_links.empty()) classes[i].link_scale = class_links[i];
      if (!class_disks.empty()) {
        classes[i].disk_rate = units::MiB(class_disks[i]);
      }
      if (!class_slots.empty()) {
        std::tie(classes[i].map_slots, classes[i].reduce_slots) =
            class_slots[i];
      }
    }
    hetero::validate(cfg.hetero);  // config-layer invariants (names etc.)
  }
  if (cfg.sample_period != -1.0 && cfg.sample_period < 0.0) {
    fail("--sample-period must be >= 0 sim-seconds");
  }
  // Sampling defaults on (10 sim-seconds) whenever an exporter wants the
  // time-series; an explicit --sample-period 0 turns it back off.
  if (cfg.sample_period < 0.0) {
    cfg.sample_period =
        cfg.telemetry_path.empty() && cfg.perfetto_path.empty() ? 0.0 : 10.0;
  }
  auto& mix = scfg.arrivals.mix;
  mix.reduce_count_scale = mix.map_count_scale;

  // Trace generation mode: stream the synthetic production trace straight
  // to disk (one record in memory at a time) and exit.
  if (!gen_trace.empty()) {
    gcfg.duration = scfg.arrivals.duration;
    gcfg.mean_rate_per_hour = scfg.arrivals.rate_per_hour;
    gcfg.mix.map_count_scale = mix.map_count_scale;
    gcfg.mix.reduce_count_scale = mix.reduce_count_scale;
    if (gcfg.duration <= 0.0 || gcfg.mean_rate_per_hour <= 0.0 ||
        mix.map_count_scale <= 0.0 || gcfg.users == 0 ||
        gcfg.diurnal_amplitude < 0.0 || gcfg.diurnal_amplitude >= 1.0 ||
        gcfg.burst_rate_multiplier < 1.0 || gcfg.mix.size_jitter_sigma < 0.0) {
      fail("--gen-trace needs --duration/--rate/--job-scale > 0, "
           "--gen-users >= 1, --gen-diurnal in [0,1), "
           "--gen-burst >= 1 and --gen-sigma >= 0");
    }
    workload::ProductionTraceGenerator gen(gcfg, Rng(cfg.seed));
    const std::size_t rows = workload::write_arrival_trace(gen_trace, gen);
    std::printf("generated trace written to %s (jobs=%zu users=%zu "
                "horizon=%.0fs mean-rate=%.1f jobs/h)\n",
                gen_trace.c_str(), rows, gcfg.users, gcfg.duration,
                gcfg.mean_rate_per_hour);
    return 0;
  }

  // A tenant count alone is enough to ask for a multi-tenant stream; the
  // global process field is ignored once per-tenant processes exist.
  if (tenants > 0 && !arrivals) arrivals = workload::ArrivalProcess::kPoisson;
  const bool trace_mode = arrivals == workload::ArrivalProcess::kTrace;
  if (scfg.stream_trace && !trace_mode) {
    fail("--stream-trace requires --arrivals trace");
  }

  if (arrivals) {
    scfg.arrivals.process = *arrivals;
    const double duration = scfg.arrivals.duration;
    if (trace_mode && scfg.arrivals.trace_path.empty()) {
      fail("--arrivals trace requires --arrival-trace FILE");
    }
    if (duration <= 0.0) fail("--duration must be > 0");
    if (!trace_mode && scfg.arrivals.rate_per_hour <= 0.0) {
      fail("--rate must be > 0 jobs/hour");
    }
    if (scfg.warmup >= duration) fail("--warmup must be < --duration");
    if (mix.map_count_scale <= 0.0) fail("--job-scale must be > 0");
    if (scfg.warmup < 0.0) scfg.warmup = duration / 6.0;

    if (tenants > 0) {
      if (trace_mode) {
        fail("--tenants is incompatible with --arrivals trace (tag tenants "
             "in the trace file instead)");
      }
      want_n("--tenant-rates", tenant_rates.size(), tenants);
      want_n("--tenant-bursts", tenant_bursts.size(), tenants);
      want_n("--tenant-weights", tenant_weights.size(), tenants);
      want_n("--tenant-processes", tenant_processes.size(), tenants);
      want_n("--tenant-quotas", cfg.admission.tenant_quota_weights.size(),
             tenants);
      scfg.arrivals.tenants.resize(tenants);
      for (std::size_t t = 0; t < tenants; ++t) {
        auto& tc = scfg.arrivals.tenants[t];
        tc.mix = mix;
        tc.mmpp = scfg.arrivals.mmpp;
        // Default: split the global rate evenly so --rate still names the
        // total offered load.
        tc.rate_per_hour =
            tenant_rates.empty()
                ? scfg.arrivals.rate_per_hour / static_cast<double>(tenants)
                : tenant_rates[t];
        if (!tenant_bursts.empty()) {
          tc.mmpp.burst_rate_multiplier = tenant_bursts[t];
        }
        if (!tenant_weights.empty()) tc.weight = tenant_weights[t];
        tc.process = tenant_processes.empty() ? scfg.arrivals.process
                                              : tenant_processes[t];
      }
    }

    if (!quiet) {
      std::printf("pnats_sim: open-loop %s stream | %.1f jobs/h over %.0fs "
                  "(warmup %.0fs) | %zu nodes x %zu racks | scheduler=%s "
                  "seed=%llu\n",
                  name_of(kArrivals, *arrivals), scfg.arrivals.rate_per_hour,
                  duration, scfg.warmup, cfg.nodes, cfg.racks,
                  driver::to_string(cfg.scheduler),
                  static_cast<unsigned long long>(cfg.seed));
    }
    const auto stream = driver::run_stream_experiment(scfg);
    const auto& ss = stream.steady;
    // Streamed traces never buffer the arrival vector; count from the
    // per-job records instead.
    const std::size_t arrival_count = stream.arrivals.empty()
                                          ? stream.run.job_records.size()
                                          : stream.arrivals.size();
    std::printf("%s: drained=%s arrivals=%zu makespan=%.1fs\n",
                stream.run.scheduler_name.c_str(),
                stream.run.completed ? "yes" : "NO", arrival_count,
                stream.run.makespan);
    std::printf("steady-state [%.0fs, %.0fs): offered=%.1f jobs/h "
                "goodput=%.1f jobs/h submitted=%zu completed=%zu "
                "(%.1f MiB/s offered)\n",
                ss.window.begin, ss.window.end, ss.offered_jobs_per_hour,
                ss.throughput_jobs_per_hour, ss.jobs_submitted,
                ss.jobs_completed, units::to_MiB(ss.offered_bytes_per_sec));
    std::printf("  response  p50=%.1fs p95=%.1fs p99=%.1fs mean=%.1fs "
                "(n=%zu)\n",
                ss.response_time.p50, ss.response_time.p95,
                ss.response_time.p99, ss.response_time.mean,
                ss.response_time.count);
    std::printf("  queueing  p50=%.1fs p95=%.1fs p99=%.1fs mean=%.1fs\n",
                ss.queueing_delay.p50, ss.queueing_delay.p95,
                ss.queueing_delay.p99, ss.queueing_delay.mean);
    std::printf("  occupancy L=%.2f jobs | map-util=%.1f%% "
                "reduce-util=%.1f%%\n",
                ss.mean_jobs_in_system, 100.0 * ss.map_slot_utilization,
                100.0 * ss.reduce_slot_utilization);
    std::printf("  control   policy=%s rejected=%zu (%.1f%%) deferred=%zu "
                "aborted=%zu | deferral p50=%.1fs p99=%.1fs\n",
                stream.run.admission_policy.empty()
                    ? "none"
                    : stream.run.admission_policy.c_str(),
                ss.jobs_rejected, 100.0 * ss.rejection_rate,
                ss.jobs_deferred, ss.jobs_aborted, ss.deferral_delay.p50,
                ss.deferral_delay.p99);
    if (ss.tenants.size() > 1) {
      for (const auto& t : ss.tenants) {
        std::printf("  tenant %zu submitted=%zu completed=%zu "
                    "rejected=%zu deferred=%zu goodput=%.1f jobs/h "
                    "response p50=%.1fs p99=%.1fs L=%.2f\n",
                    t.tenant.value(), t.jobs_submitted, t.jobs_completed,
                    t.jobs_rejected, t.jobs_deferred,
                    t.throughput_jobs_per_hour, t.response_time.p50,
                    t.response_time.p99, t.mean_jobs_in_system);
      }
    }
    print_breakdowns(stream.run, cfg);
    if (!out_dir.empty()) {
      driver::save_result(out_dir, "stream", stream.run);
      std::printf("records saved under %s/stream_*.csv\n", out_dir.c_str());
    }
    print_exports(stream.run, cfg);
    return stream.run.completed ? 0 : 1;
  }

  if (!quiet) {
    std::printf("pnats_sim: %zu jobs | %zu nodes x %zu racks | "
                "scheduler=%s seed=%llu\n",
                cfg.jobs.size(), cfg.nodes, cfg.racks,
                driver::to_string(cfg.scheduler),
                static_cast<unsigned long long>(cfg.seed));
  }
  const auto result = driver::run_experiment(cfg);

  RunningStats jct;
  for (const auto& j : result.job_records) {
    // Truncated runs carry sentinel records (finish < submit) for jobs
    // that never finished — they have no completion time.
    if (j.finish_time >= j.submit_time) jct.add(j.completion_time());
  }
  const auto loc = metrics::locality_summary(result.task_records,
                                             metrics::TaskFilter::kAll);
  std::printf("%s: completed=%s jobs=%zu meanJCT=%.1fs makespan=%.1fs "
              "local=%.1f%% map-util=%.1f%%\n",
              result.scheduler_name.c_str(),
              result.completed ? "yes" : "NO",
              result.job_records.size(), jct.mean(), result.makespan,
              loc.node_local_pct,
              100.0 * result.utilization.map_utilization());
  print_breakdowns(result, cfg);

  if (!quiet) {
    for (const auto& j : result.job_records) {
      if (j.finish_time >= j.submit_time) {
        std::printf("  %-18s %8.1fs\n", j.name.c_str(),
                    j.completion_time());
      } else {
        std::printf("  %-18s unfinished\n", j.name.c_str());
      }
    }
  }
  if (!out_dir.empty()) {
    driver::save_result(out_dir, "run", result);
    std::printf("records saved under %s/run_*.csv\n", out_dir.c_str());
  }
  if (!cfg.trace_path.empty()) {
    std::printf("trace written to %s\n", cfg.trace_path.c_str());
  }
  print_exports(result, cfg);
  return result.completed ? 0 : 1;
}
