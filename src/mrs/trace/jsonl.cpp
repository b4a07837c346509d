#include "mrs/trace/jsonl.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "mrs/common/json.hpp"

namespace mrs::trace {

void to_jsonl(const std::vector<JobTrace>& jobs,
              const std::vector<PlacementDecisionRecord>& decisions,
              const std::vector<JobBlame>& blames, std::ostream& out) {
  for (const JobTrace& jt : jobs) {
    if (!jt.activated) continue;
    out << "{\"type\":\"job\",\"job\":" << jt.job.value() << ",\"name\":\""
        << json_escape(jt.name) << "\",\"tenant\":"
        << (jt.tenant.valid() ? jt.tenant.value() : 0)
        << ",\"submit\":" << json_number(jt.submit) << ",\"admitted\":"
        << json_number(jt.admitted) << ",\"finish\":" << json_number(jt.finish)
        << ",\"aborted\":" << (jt.aborted ? 1 : 0)
        << ",\"maps\":" << jt.maps.size()
        << ",\"reduces\":" << jt.reduces.size() << "}\n";
    auto spans = [&](const std::vector<TaskSpans>& tasks, const char* kind) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (const AttemptSpan& a : tasks[i].attempts) {
          out << "{\"type\":\"span\",\"job\":" << jt.job.value()
              << ",\"kind\":\"" << kind << "\",\"task\":" << i
              << ",\"attempt\":" << a.attempt << ",\"node\":"
              << (a.node.valid() ? static_cast<long long>(a.node.value()) : -1)
              << ",\"backup\":" << (a.backup ? 1 : 0)
              << ",\"locality\":" << a.locality
              << ",\"assigned\":" << json_number(a.assigned)
              << ",\"ready\":" << json_number(a.ready)
              << ",\"shuffle_done\":" << json_number(a.shuffle_done)
              << ",\"end\":" << json_number(a.end) << ",\"state\":\""
              << (a.finished ? "finished" : (a.closed ? "killed" : "open"))
              << "\",\"remote\":" << (a.remote_fetch ? 1 : 0)
              << ",\"straggler\":" << (a.straggler ? 1 : 0)
              << ",\"nominal\":" << json_number(a.nominal_compute) << "}\n";
        }
      }
    };
    spans(jt.maps, "map");
    spans(jt.reduces, "reduce");
  }
  for (const PlacementDecisionRecord& d : decisions) {
    out << "{\"type\":\"decision\",\"time\":" << json_number(d.time)
        << ",\"kind\":\"" << (d.is_map ? "map" : "reduce") << "\",\"job\":"
        << (d.job.valid() ? static_cast<long long>(d.job.value()) : -1)
        << ",\"task\":"
        << (d.task == SIZE_MAX ? -1 : static_cast<long long>(d.task))
        << ",\"node\":"
        << (d.node.valid() ? static_cast<long long>(d.node.value()) : -1)
        << ",\"candidates\":" << d.candidates
        << ",\"free_nodes\":" << d.free_nodes
        << ",\"cost\":" << json_number(d.cost)
        << ",\"cost_avg\":" << json_number(d.cost_avg)
        << ",\"p\":" << json_number(d.p)
        << ",\"locality\":" << d.locality << ",\"outcome\":\""
        << to_string(d.outcome) << "\"}\n";
  }
  for (const JobBlame& b : blames) {
    out << "{\"type\":\"blame\",\"job\":" << b.job.value() << ",\"name\":\""
        << json_escape(b.name) << "\",\"tenant\":"
        << (b.tenant.valid() ? b.tenant.value() : 0) << ",\"critical_node\":"
        << (b.critical_node.valid()
                ? static_cast<long long>(b.critical_node.value())
                : -1)
        << ",\"response\":" << json_number(b.response)
        << ",\"queue\":" << json_number(b.queue())
        << ",\"network\":" << json_number(b.network())
        << ",\"compute\":" << json_number(b.compute())
        << ",\"retry\":" << json_number(b.retry()) << "}\n";
  }
}

void write_jsonl(const std::string& path, const std::vector<JobTrace>& jobs,
                 const std::vector<PlacementDecisionRecord>& decisions,
                 const std::vector<JobBlame>& blames) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_jsonl: cannot open " + path);
  to_jsonl(jobs, decisions, blames, out);
}

}  // namespace mrs::trace
