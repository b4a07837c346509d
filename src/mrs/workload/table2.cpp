#include "mrs/workload/table2.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>

#include "mrs/common/check.hpp"
#include "mrs/common/csv.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::workload {

using mapreduce::JobKind;

const std::vector<JobDescription>& table2_catalog() {
  // Map/reduce counts exactly as reported in Table II of the paper.
  static const std::vector<JobDescription> kCatalog = {
      {"01", "Wordcount_10GB", JobKind::kWordcount, 10, 88, 157},
      {"02", "Wordcount_20GB", JobKind::kWordcount, 20, 160, 169},
      {"03", "Wordcount_30GB", JobKind::kWordcount, 30, 278, 159},
      {"04", "Wordcount_40GB", JobKind::kWordcount, 40, 502, 169},
      {"05", "Wordcount_50GB", JobKind::kWordcount, 50, 490, 127},
      {"06", "Wordcount_60GB", JobKind::kWordcount, 60, 645, 187},
      {"07", "Wordcount_70GB", JobKind::kWordcount, 70, 598, 165},
      {"08", "Wordcount_80GB", JobKind::kWordcount, 80, 818, 291},
      {"09", "Wordcount_90GB", JobKind::kWordcount, 90, 837, 157},
      {"10", "Wordcount_100GB", JobKind::kWordcount, 100, 930, 197},
      {"11", "Terasort_10GB", JobKind::kTerasort, 10, 143, 190},
      {"12", "Terasort_20GB", JobKind::kTerasort, 20, 199, 186},
      {"13", "Terasort_30GB", JobKind::kTerasort, 30, 364, 131},
      {"14", "Terasort_40GB", JobKind::kTerasort, 40, 320, 149},
      {"15", "Terasort_50GB", JobKind::kTerasort, 50, 490, 189},
      {"16", "Terasort_60GB", JobKind::kTerasort, 60, 480, 193},
      {"17", "Terasort_70GB", JobKind::kTerasort, 70, 560, 178},
      {"18", "Terasort_80GB", JobKind::kTerasort, 80, 648, 184},
      {"19", "Terasort_90GB", JobKind::kTerasort, 90, 753, 171},
      {"20", "Terasort_100GB", JobKind::kTerasort, 100, 824, 193},
      {"21", "Grep_10GB", JobKind::kGrep, 10, 87, 148},
      {"22", "Grep_20GB", JobKind::kGrep, 20, 163, 174},
      {"23", "Grep_30GB", JobKind::kGrep, 30, 188, 184},
      {"24", "Grep_40GB", JobKind::kGrep, 40, 203, 158},
      {"25", "Grep_50GB", JobKind::kGrep, 50, 285, 164},
      {"26", "Grep_60GB", JobKind::kGrep, 60, 389, 137},
      {"27", "Grep_70GB", JobKind::kGrep, 70, 578, 179},
      {"28", "Grep_80GB", JobKind::kGrep, 80, 634, 178},
      {"29", "Grep_90GB", JobKind::kGrep, 90, 815, 164},
      {"30", "Grep_100GB", JobKind::kGrep, 100, 893, 184},
  };
  return kCatalog;
}

std::vector<JobDescription> table2_batch(JobKind kind) {
  std::vector<JobDescription> out;
  for (const auto& d : table2_catalog()) {
    if (d.kind == kind) out.push_back(d);
  }
  return out;
}

mapreduce::JobSpec make_job_spec(const JobDescription& desc,
                                 const AppProfile& profile,
                                 dfs::BlockStore& store,
                                 dfs::BlockPlacer& placer,
                                 const WorkloadConfig& cfg,
                                 Seconds submit_time) {
  MRS_REQUIRE(desc.map_count >= 1 && desc.reduce_count >= 1);
  MRS_REQUIRE(desc.weight > 0.0);
  mapreduce::JobSpec spec;
  spec.name = desc.name;
  spec.kind = desc.kind;
  spec.weight = desc.weight;
  spec.tenant = desc.tenant;
  spec.reduce_count = desc.reduce_count;
  spec.map_rate = profile.map_rate;
  spec.reduce_rate = profile.reduce_rate;
  spec.map_selectivity = profile.map_selectivity;
  spec.selectivity_jitter = profile.selectivity_jitter;
  spec.partition_skew = profile.partition_skew;
  spec.emit_nonlinearity = profile.emit_nonlinearity;
  spec.task_startup = profile.task_startup;
  spec.submit_time = submit_time;

  // One block per map task (Hadoop's split-per-block default). Table II's
  // map counts come from the authors' actual file sizes, so the effective
  // input is map_count * block_size rather than exactly the nominal GB.
  spec.map_tasks.reserve(desc.map_count);
  for (std::size_t j = 0; j < desc.map_count; ++j) {
    // With gateway writers, blocks enter round-robin through the writer
    // set and the first replica lands writer-local (HDFS default policy).
    std::optional<NodeId> writer;
    if (cfg.writer_count > 0) {
      writer = NodeId(j % cfg.writer_count);
    }
    const BlockId block = store.add_block(
        cfg.block_size, placer.place(cfg.replication, cfg.placement, writer));
    spec.map_tasks.push_back({block, cfg.block_size});
  }
  return spec;
}

std::vector<mapreduce::JobSpec> make_batch(
    const std::vector<JobDescription>& descs, dfs::BlockStore& store,
    dfs::BlockPlacer& placer, const WorkloadConfig& cfg) {
  std::vector<mapreduce::JobSpec> specs;
  specs.reserve(descs.size());
  Seconds t = 0.0;
  for (const auto& d : descs) {
    specs.push_back(make_job_spec(d, profile_for(d.kind), store, placer, cfg,
                                  t));
    t += cfg.submit_spacing;
  }
  return specs;
}

std::vector<JobDescription> load_jobs_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_jobs_csv: cannot open " + path);
  CsvDataRows rows(in);
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(strf("load_jobs_csv: %s:%zu: %s", path.c_str(),
                                  rows.line(), what.c_str()));
  };
  const auto count = [&](const std::string& field, const char* column) {
    const std::optional<std::size_t> n = parse_count(field);
    if (!n) fail(strf("bad integer value '%s' for %s", field.c_str(), column));
    return *n;
  };
  std::vector<JobDescription> jobs;
  std::vector<std::string> fields;
  while (rows.next(fields)) {
    if (fields.size() < 4 || fields.size() > 6) {
      fail("expected name,kind,maps,reduces[,weight[,tenant]]");
    }
    JobDescription d;
    d.job_id = strf("%zu", jobs.size() + 1);
    d.name = fields[0];
    if (fields[1] == "Wordcount") d.kind = JobKind::kWordcount;
    else if (fields[1] == "Terasort") d.kind = JobKind::kTerasort;
    else if (fields[1] == "Grep") d.kind = JobKind::kGrep;
    else fail(strf("unknown kind '%s'", fields[1].c_str()));
    d.map_count = count(fields[2], "maps");
    d.reduce_count = count(fields[3], "reduces");
    if (d.map_count == 0 || d.reduce_count == 0) {
      fail("counts must be positive");
    }
    if (fields.size() >= 5) {
      const std::optional<double> weight = parse_finite(fields[4]);
      if (!weight) {
        fail(strf("bad numeric value '%s' for weight", fields[4].c_str()));
      }
      d.weight = *weight;
    }
    if (!(d.weight > 0.0)) fail("weight must be > 0");
    if (fields.size() >= 6) d.tenant = TenantId(count(fields[5], "tenant"));
    jobs.push_back(std::move(d));
  }
  if (jobs.empty()) {
    throw std::runtime_error("load_jobs_csv: no jobs in " + path);
  }
  return jobs;
}

}  // namespace mrs::workload
