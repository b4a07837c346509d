#include "mrs/mapreduce/observers.hpp"

#include <algorithm>
#include <utility>

#include "mrs/cluster/cluster.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::mapreduce {

std::optional<TraceRow> trace_row(const EngineEvent& e) {
  const auto job = [&e](const char* kind, std::string detail = {}) {
    return TraceRow{kind, std::string(e.job_name), std::move(detail)};
  };
  const auto task = [&e](const char* map_kind, const char* reduce_kind,
                         std::string detail = {}) {
    return TraceRow{e.is_map ? map_kind : reduce_kind,
                    strf("%.*s/%s/%zu", static_cast<int>(e.job_name.size()),
                         e.job_name.data(), e.is_map ? "map" : "reduce",
                         e.task),
                    std::move(detail)};
  };
  const auto node = [&e](const char* kind) {
    return TraceRow{kind, strf("node/%zu", e.node.value()), {}};
  };
  switch (e.kind) {
    case EventKind::kJobActivated: return job("job-activated");
    case EventKind::kJobDeferred:
      return job("job-deferred", strf("retry_in=%.1f attempt=%zu",
                                      e.duration, e.attempts));
    case EventKind::kJobRejected: return job("job-rejected");
    case EventKind::kJobAborted: return job("job-aborted");
    case EventKind::kJobFinished:
      return job("job-finished", strf("jct=%.3f", e.time - e.submit));
    case EventKind::kTaskAssigned:
      if (e.backup) {
        return task("speculative-launch", "speculative-launch",
                    strf("backup-node=%zu", e.node.value()));
      }
      return task("map-assigned", "reduce-assigned",
                  strf("node=%zu locality=%s", e.node.value(),
                       to_string(e.locality)));
    case EventKind::kTaskKilled:
      if (e.backup) return std::nullopt;
      return task("map-killed", "reduce-killed");
    case EventKind::kTaskFinished:
      return task("map-finished", "reduce-finished",
                  strf("node=%zu attempts=%zu", e.node.value(), e.attempts));
    case EventKind::kStallTimeout:
      return task("stall-timeout", "stall-timeout",
                  strf("node=%zu retries=%zu", e.node.value(),
                       e.stall_retries));
    case EventKind::kNodeFailed: return node("node-failed");
    case EventKind::kNodeRecovered: return node("node-recovered");
    case EventKind::kNodeBlacklisted: return node("node-blacklisted");
    case EventKind::kNodeUnblacklisted: return node("node-unblacklisted");
    case EventKind::kTaskReady:
    case EventKind::kShuffleDone:
    case EventKind::kStallRetry:
      return std::nullopt;
  }
  return std::nullopt;
}

void MemoryTraceSink::on_event(const EngineEvent& event) {
  EngineEvent& e = events_.emplace_back(event);
  if (e.job.valid()) {
    e.job_name = names_.try_emplace(e.job.value(), e.job_name).first->second;
  }
}

std::size_t MemoryTraceSink::count(std::string_view kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), [kind](const auto& e) {
        const auto row = trace_row(e);
        return row && row->kind == kind;
      }));
}

void CsvTraceSink::on_event(const EngineEvent& event) {
  if (auto row = trace_row(event)) {
    writer_.row({strf("%.6f", event.time), row->kind,
                 std::move(row->subject), std::move(row->detail)});
  }
}

LifecycleCounters::LifecycleCounters(telemetry::Registry& registry,
                                     const cluster::Cluster& cluster)
    : registry_(registry),
      cluster_(cluster),
      speculative_launches_(&registry.counter("engine.speculative_launches")) {
  const auto index = [](EventKind k) { return static_cast<std::size_t>(k); };
  // Job, node and stall counters count maps and reduces alike.
  static constexpr std::pair<EventKind, const char*> kAnyTask[] = {
      {EventKind::kJobActivated, "engine.jobs.activated"},
      {EventKind::kJobFinished, "engine.jobs.finished"},
      {EventKind::kJobAborted, "control.jobs.aborted"},
      {EventKind::kStallTimeout, "engine.transfer.stall_timeouts"},
      {EventKind::kStallRetry, "engine.transfer.retries"},
      {EventKind::kNodeFailed, "engine.nodes.failed"},
      {EventKind::kNodeRecovered, "engine.nodes.recovered"},
      {EventKind::kNodeBlacklisted, "control.blacklist.entries"},
      {EventKind::kNodeUnblacklisted, "control.blacklist.exits"},
  };
  for (const auto& [kind, name] : kAnyTask) {
    telemetry::Counter* c = &registry.counter(name);
    by_kind_[index(kind)] = {c, c};
  }
  static constexpr std::pair<EventKind, const char*> kPerTask[] = {
      {EventKind::kTaskAssigned, "assigned"},
      {EventKind::kTaskFinished, "finished"},
      {EventKind::kTaskKilled, "killed"},
  };
  static constexpr const char* kLocality[3] = {"node", "rack", "remote"};
  for (int map = 0; map < 2; ++map) {
    const char* task = map ? "maps" : "reduces";
    for (const auto& [kind, what] : kPerTask) {
      by_kind_[index(kind)][map] =
          &registry.counter(strf("engine.%s.%s", task, what));
    }
    for (int l = 0; l < 3; ++l) {
      locality_[l][map] = &registry.counter(
          strf("engine.%s.locality.%s", task, kLocality[l]));
    }
  }
}

telemetry::Counter& LifecycleCounters::class_counter(const EngineEvent& e) {
  if (classes_.empty()) classes_.resize(cluster_.class_count());
  const std::size_t c = cluster_.node(e.node).class_index;
  std::array<Pair, 2>& counters = classes_[c];
  if (counters[0][0] == nullptr) {  // all four of a class appear together
    const char* name = cluster_.class_name(c).c_str();
    for (int finished = 0; finished < 2; ++finished) {
      for (int map = 0; map < 2; ++map) {
        counters[finished][map] = &registry_.counter(
            strf("hetero.class.%s.%s_%s", name, map ? "maps" : "reduces",
                 finished ? "finished" : "assigned"));
      }
    }
  }
  return *counters[e.kind == EventKind::kTaskFinished][e.is_map];
}

void LifecycleCounters::on_event(const EngineEvent& e) {
  // A speculative backup counts as a launch; only its win counts further.
  if (e.backup && e.kind != EventKind::kTaskFinished) {
    if (e.kind == EventKind::kTaskAssigned) speculative_launches_->inc();
    return;
  }
  const auto kind = static_cast<std::size_t>(e.kind);
  if (telemetry::Counter* c = by_kind_[kind][e.is_map]) c->inc();
  const bool placed = e.kind == EventKind::kTaskAssigned;
  if (placed) locality_[static_cast<std::size_t>(e.locality)][e.is_map]->inc();
  if ((placed || e.kind == EventKind::kTaskFinished) &&
      cluster_.has_node_classes()) {
    class_counter(e).inc();
  }
}

}  // namespace mrs::mapreduce
