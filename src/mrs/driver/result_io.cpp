#include "mrs/driver/result_io.hpp"

#include <filesystem>

#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::driver {

namespace {

using mapreduce::JobKind;
using mapreduce::Locality;

std::string locality_code(Locality l) {
  switch (l) {
    case Locality::kNodeLocal: return "node";
    case Locality::kRackLocal: return "rack";
    case Locality::kRemote: return "remote";
  }
  return "?";
}

std::string kind_code(JobKind k) { return mapreduce::to_string(k); }

}  // namespace

void save_result(const std::string& directory, const std::string& stem,
                 const ExperimentResult& result) {
  std::filesystem::create_directories(directory);
  const std::string base = directory + "/" + stem;
  {
    CsvWriter meta(base + "_meta.csv",
                   {"scheduler", "completed", "makespan", "events",
                    "map_busy", "reduce_busy", "span", "map_slots",
                    "reduce_slots"});
    meta.row({result.scheduler_name, result.completed ? "1" : "0",
              strf("%.17g", result.makespan),
              strf("%zu", result.events_processed),
              strf("%.17g", result.utilization.map_slot_seconds_busy),
              strf("%.17g", result.utilization.reduce_slot_seconds_busy),
              strf("%.17g", result.utilization.span),
              strf("%zu", result.utilization.total_map_slots),
              strf("%zu", result.utilization.total_reduce_slots)});
  }
  {
    CsvWriter jobs(base + "_jobs.csv",
                   {"id", "name", "kind", "maps", "reduces", "input_bytes",
                    "shuffle_bytes", "submit", "finish", "aborted",
                    "tenant"});
    for (const auto& j : result.job_records) {
      jobs.row({strf("%zu", j.id.value()), j.name, kind_code(j.kind),
                strf("%zu", j.map_count), strf("%zu", j.reduce_count),
                strf("%.17g", j.input_bytes), strf("%.17g", j.shuffle_bytes),
                strf("%.17g", j.submit_time), strf("%.17g", j.finish_time),
                j.aborted ? "1" : "0", strf("%zu", j.tenant.value())});
    }
  }
  {
    CsvWriter tasks(base + "_tasks.csv",
                    {"job", "kind", "is_map", "index", "node", "locality",
                     "assigned", "finished", "cost", "net_bytes",
                     "attempts"});
    for (const auto& t : result.task_records) {
      tasks.row({strf("%zu", t.job.value()), kind_code(t.kind),
                 t.is_map ? "1" : "0", strf("%zu", t.index),
                 strf("%zu", t.node.value()), locality_code(t.locality),
                 strf("%.17g", t.assigned_at), strf("%.17g", t.finished_at),
                 strf("%.17g", t.placement_cost),
                 strf("%.17g", t.network_bytes), strf("%zu", t.attempts)});
    }
  }
}

}  // namespace mrs::driver
