// The paper's Table II workload: 30 jobs (10 Wordcount, 10 Terasort,
// 10 Grep; nominal inputs 10-100 GB) with the exact map/reduce task counts
// the authors report, plus builders that materialise those jobs against a
// simulated DFS.
#pragma once

#include <string>
#include <vector>

#include "mrs/common/rng.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/job.hpp"
#include "mrs/workload/profiles.hpp"

namespace mrs::workload {

struct JobDescription {
  std::string job_id;  ///< "01".."30" as in Table II
  std::string name;    ///< e.g. "Wordcount_10GB"
  mapreduce::JobKind kind = mapreduce::JobKind::kCustom;
  double nominal_gb = 0.0;
  std::size_t map_count = 0;
  std::size_t reduce_count = 0;
  /// Fair-share weight carried onto JobSpec::weight (must be > 0).
  double weight = 1.0;
  /// Owning tenant carried onto JobSpec::tenant.
  TenantId tenant = TenantId(0);
};

/// All 30 jobs of Table II, in JobID order.
[[nodiscard]] const std::vector<JobDescription>& table2_catalog();

/// The subset of one application batch (the paper runs the three batches
/// separately).
[[nodiscard]] std::vector<JobDescription> table2_batch(
    mapreduce::JobKind kind);

struct WorkloadConfig {
  Bytes block_size = 128.0 * units::kMiB;
  std::size_t replication = 2;  ///< the paper's replication factor
  dfs::PlacementPolicy placement = dfs::PlacementPolicy::kHdfsDefault;
  /// Delay between successive job submissions within a batch.
  Seconds submit_spacing = 0.0;
  /// Number of DFS gateway (writer) nodes. Uploaded datasets enter HDFS
  /// through a few clients and the default policy pins each block's first
  /// replica writer-local, concentrating data on those nodes — the
  /// "replicas stored in a subset of the nodes" scenario the paper
  /// motivates. 0 = no anchoring (every replica placed by policy alone).
  std::size_t writer_count = 0;
};

/// Materialise one job: ingest `map_count` blocks of `block_size` into the
/// store (each block becomes one map task) and attach the profile's
/// execution parameters. The returned spec's id is assigned by the engine
/// at submit time.
[[nodiscard]] mapreduce::JobSpec make_job_spec(const JobDescription& desc,
                                               const AppProfile& profile,
                                               dfs::BlockStore& store,
                                               dfs::BlockPlacer& placer,
                                               const WorkloadConfig& cfg,
                                               Seconds submit_time);

/// Materialise a whole batch in catalog order, spacing submissions by
/// cfg.submit_spacing.
[[nodiscard]] std::vector<mapreduce::JobSpec> make_batch(
    const std::vector<JobDescription>& descs, dfs::BlockStore& store,
    dfs::BlockPlacer& placer, const WorkloadConfig& cfg);

/// Load custom job descriptions from a CSV file with a header row of
///   name,kind,maps,reduces[,weight[,tenant]]
/// where kind is Wordcount | Terasort | Grep (sets the execution profile),
/// weight is the fair-share weight (> 0, default 1) and tenant a
/// non-negative tenant index (default 0). Fields may be quoted
/// (CsvReader); lines starting with '#' and blank lines are skipped.
/// Numbers must fill their field and be finite (parse_count,
/// parse_finite). Throws std::runtime_error on unreadable files or
/// malformed rows, naming the row as path:line.
[[nodiscard]] std::vector<JobDescription> load_jobs_csv(
    const std::string& path);

}  // namespace mrs::workload
