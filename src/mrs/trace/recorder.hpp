// TraceRecorder: builds JobTrace span trees from engine lifecycle events.
//
// The recorder is an engine observer (mrs/mapreduce/event.hpp): installed
// with Engine::add_observer, it turns each job/attempt event into span
// boundaries and ignores the rest. It never consumes RNG or feeds back
// into scheduling, so enabling it cannot perturb placements (byte-identity
// with tracing off is tested).
#pragma once

#include <vector>

#include "mrs/mapreduce/event.hpp"
#include "mrs/trace/span.hpp"

namespace mrs::trace {

class TraceRecorder final : public mapreduce::EngineObserver {
 public:
  void on_event(const mapreduce::EngineEvent& event) override;

  /// All traces, indexed by JobId value. Entries for jobs that never
  /// activated (admission-rejected) have activated == false.
  [[nodiscard]] const std::vector<JobTrace>& jobs() const { return jobs_; }

 private:
  JobTrace& job(JobId id);
  TaskSpans& task(const mapreduce::EngineEvent& event);

  std::vector<JobTrace> jobs_;
};

}  // namespace mrs::trace
