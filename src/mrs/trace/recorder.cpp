#include "mrs/trace/recorder.hpp"

#include "mrs/common/check.hpp"

namespace mrs::trace {

namespace {

/// The task's newest still-open attempt of the given kind, or nullptr.
AttemptSpan* open_attempt(TaskSpans& task, bool backup) {
  for (auto it = task.attempts.rbegin(); it != task.attempts.rend(); ++it) {
    if (it->backup == backup && !it->closed) return &*it;
  }
  return nullptr;
}

}  // namespace

JobTrace& TraceRecorder::job(JobId id) {
  MRS_REQUIRE(id.valid());
  if (id.value() >= jobs_.size()) jobs_.resize(id.value() + 1);
  return jobs_[id.value()];
}

TaskSpans& TraceRecorder::task(const mapreduce::EngineEvent& e) {
  std::vector<TaskSpans>& tasks = e.is_map ? job(e.job).maps
                                           : job(e.job).reduces;
  MRS_REQUIRE(e.task < tasks.size());
  return tasks[e.task];
}

void TraceRecorder::on_event(const mapreduce::EngineEvent& e) {
  using mapreduce::EventKind;
  switch (e.kind) {
    case EventKind::kJobActivated: {
      JobTrace& jt = job(e.job);
      jt.job = e.job;
      jt.name = e.job_name;
      jt.tenant = e.tenant;
      jt.submit = e.submit;
      jt.admitted = e.time;
      jt.activated = true;
      jt.maps.resize(e.maps);
      jt.reduces.resize(e.reduces);
      break;
    }
    case EventKind::kJobFinished:
    case EventKind::kJobAborted: {
      JobTrace& jt = job(e.job);
      jt.finish = e.time;
      jt.aborted = e.kind == EventKind::kJobAborted;
      break;
    }
    case EventKind::kTaskAssigned: {
      TaskSpans& t = task(e);
      AttemptSpan a;
      a.attempt = t.attempts.size() + 1;
      a.node = e.node;
      a.locality = static_cast<int>(e.locality);
      a.backup = e.backup;
      a.assigned = e.time;
      t.attempts.push_back(a);
      break;
    }
    case EventKind::kTaskReady:
      if (AttemptSpan* a = open_attempt(task(e), e.backup)) {
        a->ready = e.time;
        a->remote_fetch = e.remote;
        a->nominal_compute = e.duration;
        a->straggler = e.straggler;
      }
      break;
    case EventKind::kShuffleDone:
      if (AttemptSpan* a = open_attempt(task(e), false)) {
        a->shuffle_done = e.time;
        a->nominal_compute = e.duration;
      }
      break;
    case EventKind::kTaskFinished:
      // Closes every open attempt: the losing side of a speculation race
      // ends (killed) with the winner.
      for (AttemptSpan& a : task(e).attempts) {
        if (a.closed) continue;
        a.closed = true;
        a.end = e.time;
        a.finished = a.backup == e.backup;
      }
      break;
    case EventKind::kTaskKilled:
      if (AttemptSpan* a = open_attempt(task(e), e.backup)) {
        a->closed = true;
        a->end = e.time;
      }
      break;
    default:  // admission, stalls and node events leave spans untouched
      break;
  }
}

}  // namespace mrs::trace
