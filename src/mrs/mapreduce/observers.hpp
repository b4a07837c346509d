// The engine event's standard observers: the execution trace (a CSV file
// or an in-memory log) and the lifecycle counters. The trace keeps what a
// timeline needs; it leaves out task readiness, shuffle completion, stall
// retries and the kills of speculative backups.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mrs/common/csv.hpp"
#include "mrs/mapreduce/event.hpp"
#include "mrs/telemetry/registry.hpp"

namespace mrs::cluster {
class Cluster;
}  // namespace mrs::cluster

namespace mrs::mapreduce {

/// One row of the execution trace.
struct TraceRow {
  const char* kind;     ///< e.g. "map-assigned" or "speculative-launch"
  std::string subject;  ///< e.g. "Wordcount_10GB/map/17" or "node/4"
  std::string detail;   ///< e.g. "node=23 locality=node-local"
};

/// The trace row `event` produces, or nullopt when the trace leaves the
/// event out.
[[nodiscard]] std::optional<TraceRow> trace_row(const EngineEvent& event);

/// Keeps every event in memory (tests, the Perfetto exporter). Job names
/// are copied, so the stored events outlive the engine.
class MemoryTraceSink final : public EngineObserver {
 public:
  void on_event(const EngineEvent& event) override;

  [[nodiscard]] const std::vector<EngineEvent>& events() const {
    return events_;
  }
  /// Stored events whose trace row has kind label `kind`.
  [[nodiscard]] std::size_t count(std::string_view kind) const;

 private:
  std::vector<EngineEvent> events_;
  /// Job names by JobId (map nodes keep the events' views valid).
  std::map<std::size_t, std::string> names_;
};

/// Streams the trace to a CSV file (time,kind,subject,detail).
class CsvTraceSink final : public EngineObserver {
 public:
  explicit CsvTraceSink(const std::string& path)
      : writer_(path, {"time", "kind", "subject", "detail"}) {}

  void on_event(const EngineEvent& event) override;

 private:
  CsvWriter writer_;
};

/// The engine's lifecycle counters ("engine.jobs.*", "engine.maps.*" and
/// "engine.reduces.*" with locality buckets, speculative launches, node
/// failures/recoveries, transfer stalls and retries, "control.jobs.aborted",
/// "control.blacklist.*"), registered up front. On clusters with named
/// node classes it also keeps "hetero.class.<name>.*" placement counters,
/// created on the first event touching a class.
class LifecycleCounters final : public EngineObserver {
 public:
  LifecycleCounters(telemetry::Registry& registry,
                    const cluster::Cluster& cluster);

  void on_event(const EngineEvent& event) override;

 private:
  using Pair = std::array<telemetry::Counter*, 2>;  ///< [reduce, map]
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(EventKind::kNodeUnblacklisted) + 1;

  /// `event`'s node-class counter (assignments and finishes only).
  telemetry::Counter& class_counter(const EngineEvent& event);

  telemetry::Registry& registry_;
  const cluster::Cluster& cluster_;
  std::array<Pair, kKinds> by_kind_{};  ///< null: the kind counts nothing
  std::array<Pair, 3> locality_{};      ///< assignments, by Locality
  telemetry::Counter* speculative_launches_ = nullptr;
  /// By class index, [assigned, finished]; filled on first use.
  std::vector<std::array<Pair, 2>> classes_;
};

}  // namespace mrs::mapreduce
