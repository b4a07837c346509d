#include "mrs/telemetry/perfetto.hpp"

#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mrs/common/json.hpp"
#include "mrs/common/strfmt.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "mrs/telemetry/export.hpp"

namespace mrs::telemetry {

namespace {

// Process ids grouping the trace tracks in the Perfetto UI.
constexpr int kTasksPid = 1;     ///< per-node task slices & instants
constexpr int kJobsPid = 2;      ///< per-job lifetime slices
constexpr int kCountersPid = 3;  ///< sampled time-series counters
constexpr int kWallPid = 4;      ///< host wall-clock timer aggregates

std::string us(Seconds t) { return strf("%.3f", t * 1e6); }

long track(NodeId node) {
  return node.valid() ? static_cast<long>(node.value()) : 0L;
}

std::string process_name(int pid, const char* name) {
  return strf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
              "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
              pid, name);
}

/// Flow event on a task track: `ph` 's' starts arrow `id` (retry: a killed
/// attempt to its re-execution; speculate: a primary to its backup), 'f'
/// ends it, bound to the enclosing slice.
std::string flow(const char* name, const char* cat, char ph, long id,
                 Seconds t, long tid) {
  return strf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",%s\"id\":%ld,"
              "\"ts\":%s,\"pid\":%d,\"tid\":%ld}",
              name, cat, ph, ph == 'f' ? "\"bp\":\"e\"," : "", id,
              us(t).c_str(), kTasksPid, tid);
}

struct OpenSlice {
  Seconds start = 0.0;
  long tid = 0;
  std::string detail;
};

/// (job, is_map, task): one task's attempts share a key.
using TaskKey = std::tuple<std::size_t, bool, std::size_t>;

TaskKey task_key(const mapreduce::EngineEvent& e) {
  return {e.job.value(), e.is_map, e.task};
}

}  // namespace

std::string to_chrome_trace(
    std::span<const mapreduce::EngineEvent> events, const Snapshot& snapshot,
    const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions) {
  // One JSON object per trace event; an emptied entry is dropped.
  std::vector<std::string> out = {
      process_name(kTasksPid, "cluster nodes (task slices)"),
      process_name(kJobsPid, "jobs"),
      process_name(kCountersPid, "sampled gauges"),
      process_name(kWallPid, "host wall-clock (aggregates)")};

  // assigned -> finished/killed pairing per task. Re-assignments after a
  // kill re-open the key, so every attempt gets its own slice.
  std::map<TaskKey, OpenSlice> open_tasks;
  std::map<std::size_t, long> job_tids;  ///< in order of first event
  std::map<std::size_t, Seconds> open_jobs;  ///< activation times

  // Flow arrows linking an aborted attempt to its re-execution: a kill
  // opens a flow ("s") on the killed slice's track, the next assignment of
  // the same task closes it ("f") on the new node's track. A job abort
  // withdraws its tasks' pending flows (id, index of the "s" event): they
  // have no re-execution.
  std::map<TaskKey, std::pair<long, std::size_t>> pending_retry;
  long next_flow_id = 1;

  using mapreduce::EventKind;
  for (const auto& e : events) {
    // The timeline shows the events the execution trace keeps.
    const std::optional<mapreduce::TraceRow> row = mapreduce::trace_row(e);
    if (!row) continue;
    // An instant on track (pid, tid) named after the trace row; global
    // scope ("g") spans every track, thread scope ("t") marks one.
    const auto append_instant = [&](int pid, long tid, char scope) {
      out.push_back(
          strf("{\"name\":\"%s: %s\",\"cat\":\"event\",\"ph\":\"i\","
               "\"s\":\"%c\",\"ts\":%s,\"pid\":%d,\"tid\":%ld,\"args\":"
               "{\"detail\":\"%s\"}}",
               row->kind, json_escape(row->subject).c_str(), scope,
               us(e.time).c_str(), pid, tid, json_escape(row->detail).c_str()));
    };
    const auto job_tid = [&] {
      return job_tids
          .try_emplace(e.job.value(), static_cast<long>(job_tids.size()))
          .first->second;
    };
    switch (e.kind) {
      case EventKind::kJobActivated:
        job_tid();
        open_jobs[e.job.value()] = e.time;
        break;
      case EventKind::kJobDeferred:
      case EventKind::kJobRejected:
        append_instant(kJobsPid, job_tid(), 't');
        break;
      case EventKind::kJobFinished:
      case EventKind::kJobAborted: {
        const bool aborted = e.kind == EventKind::kJobAborted;
        if (aborted) {
          std::erase_if(pending_retry, [&](const auto& entry) {
            if (std::get<0>(entry.first) != e.job.value()) return false;
            out[entry.second.second].clear();
            return true;
          });
        }
        const auto it = open_jobs.find(e.job.value());
        if (it == open_jobs.end()) break;
        out.push_back(
            strf("{\"name\":\"%s\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":%s,"
                 "\"dur\":%s,\"pid\":%d,\"tid\":%ld,\"args\":{\"detail\":"
                 "\"%s\"%s}}",
                 json_escape(row->subject).c_str(), us(it->second).c_str(),
                 us(e.time - it->second).c_str(), kJobsPid, job_tid(),
                 json_escape(row->detail).c_str(),
                 aborted ? ",\"aborted\":true" : ""));
        open_jobs.erase(it);
        break;
      }
      case EventKind::kTaskAssigned: {
        if (e.backup) {
          // Speculative launch: an instant on the backup's node, tied to
          // the still-running primary's slice by a flow.
          append_instant(kTasksPid, track(e.node), 'g');
          const auto primary = open_tasks.find(task_key(e));
          if (primary != open_tasks.end()) {
            const long id = next_flow_id++;
            out.push_back(flow("speculate", "speculation", 's', id, e.time,
                               primary->second.tid));
            out.push_back(flow("speculate", "speculation", 'f', id, e.time,
                               track(e.node)));
          }
          break;
        }
        open_tasks[task_key(e)] = {e.time, track(e.node), row->detail};
        const auto pending = pending_retry.find(task_key(e));
        if (pending != pending_retry.end()) {
          out.push_back(flow("retry", "retry", 'f', pending->second.first,
                             e.time, track(e.node)));
          pending_retry.erase(pending);
        }
        break;
      }
      case EventKind::kTaskFinished:
      case EventKind::kTaskKilled: {
        const auto it = open_tasks.find(task_key(e));
        if (it == open_tasks.end()) break;
        const bool killed = e.kind == EventKind::kTaskKilled;
        out.push_back(
            strf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,"
                 "\"dur\":%s,\"pid\":%d,\"tid\":%ld,\"args\":{\"assigned\":"
                 "\"%s\",\"end\":\"%s\"}}",
                 json_escape(row->subject).c_str(),
                 killed ? "killed" : (e.is_map ? "map" : "reduce"),
                 us(it->second.start).c_str(),
                 us(e.time - it->second.start).c_str(), kTasksPid,
                 it->second.tid, json_escape(it->second.detail).c_str(),
                 json_escape(row->detail).c_str()));
        if (killed) {
          const long id = next_flow_id++;
          out.push_back(
              flow("retry", "retry", 's', id, e.time, it->second.tid));
          pending_retry[task_key(e)] = {id, out.size() - 1};
        }
        open_tasks.erase(it);
        break;
      }
      case EventKind::kNodeFailed:
      case EventKind::kNodeRecovered:
      case EventKind::kNodeBlacklisted:
      case EventKind::kNodeUnblacklisted:
      case EventKind::kStallTimeout:
        append_instant(kTasksPid, track(e.node), 'g');
        break;
      case EventKind::kTaskReady:  // not in the trace (trace_row)
      case EventKind::kShuffleDone:
      case EventKind::kStallRetry:
        break;
    }
  }

  // Placement decision records as thread-scoped instants on the offering
  // node's track — hovering one shows why a slot was (not) filled.
  for (const auto& d : decisions) {
    out.push_back(
        strf("{\"name\":\"decision: %s\",\"cat\":\"decision\",\"ph\":\"i\","
             "\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%ld,\"args\":"
             "{\"kind\":\"%s\",\"job\":%lld,\"task\":%lld,"
             "\"candidates\":%zu,\"p\":%.17g,\"cost\":%.17g}}",
             trace::to_string(d.outcome), us(d.time).c_str(), kTasksPid,
             track(d.node), d.is_map ? "map" : "reduce",
             d.job.valid() ? static_cast<long long>(d.job.value()) : -1LL,
             d.task == SIZE_MAX ? -1LL : static_cast<long long>(d.task),
             d.candidates, d.p, d.cost));
  }

  // Sampled gauges as counter tracks.
  for (const auto& row : series.rows) {
    for (std::size_t i = 0; i < series.columns.size(); ++i) {
      out.push_back(
          strf("{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,"
               "\"tid\":0,\"args\":{\"value\":%.17g}}",
               json_escape(series.columns[i]).c_str(), us(row.t).c_str(),
               kCountersPid, row.values[i]));
    }
  }

  // Wall-clock aggregates: one summary slice per timer starting at t=0
  // with the accumulated duration (they are host-time totals, not
  // sim-time spans, hence the dedicated process).
  long wall_tid = 0;
  for (const auto& t : snapshot.timers) {
    out.push_back(
        strf("{\"name\":\"%s\",\"cat\":\"wall\",\"ph\":\"X\",\"ts\":0,"
             "\"dur\":%.3f,\"pid\":%d,\"tid\":%ld,\"args\":{\"count\":%llu,"
             "\"max_ms\":%.6f}}",
             json_escape(t.name).c_str(),
             static_cast<double>(t.total_ns) / 1e3, kWallPid, wall_tid++,
             static_cast<unsigned long long>(t.count),
             static_cast<double>(t.max_ns) / 1e6));
  }

  std::string doc = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& event : out) {
    if (event.empty()) continue;
    if (!first) doc += ",\n";
    doc += event;
    first = false;
  }
  return doc + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace(
    const std::string& path, std::span<const mapreduce::EngineEvent> events,
    const Snapshot& snapshot, const TimeSeries& series,
    std::span<const trace::PlacementDecisionRecord> decisions) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_chrome_trace: cannot open " + path);
  }
  out << to_chrome_trace(events, snapshot, series, decisions);
  if (!out) {
    throw std::runtime_error("write_chrome_trace: write failed: " + path);
  }
}

}  // namespace mrs::telemetry
