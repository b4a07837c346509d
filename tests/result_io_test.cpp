// Tests for experiment-result persistence (driver/result_io): the three
// CSV files save_result writes read back with the repo's CSV reader.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mrs/common/csv.hpp"
#include "mrs/driver/result_io.hpp"

namespace mrs::driver {
namespace {

namespace fs = std::filesystem;

/// Every record of the CSV file at `path`, header first.
std::vector<std::vector<std::string>> read_csv(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  for (std::vector<std::string> f; reader.row(f);) rows.push_back(f);
  return rows;
}

TEST(ResultIoTest, SaveResultWritesThreeCsvs) {
  ExperimentConfig cfg;
  cfg.nodes = 6;
  cfg.jobs = {{"t1", "Wordcount_tiny", mapreduce::JobKind::kWordcount, 1, 8,
               4},
              {"t2", "Grep_tiny, with comma", mapreduce::JobKind::kGrep, 1,
               6, 3}};
  cfg.seed = 5;
  const ExperimentResult result = run_experiment(cfg);
  ASSERT_TRUE(result.completed);

  const fs::path dir =
      fs::temp_directory_path() / "pnats_result_io_save_result";
  fs::remove_all(dir);
  save_result(dir.string(), "run", result);

  const auto meta = read_csv(dir / "run_meta.csv");
  ASSERT_EQ(meta.size(), 2u);
  EXPECT_EQ(meta[0], (std::vector<std::string>{
                         "scheduler", "completed", "makespan", "events",
                         "map_busy", "reduce_busy", "span", "map_slots",
                         "reduce_slots"}));
  EXPECT_EQ(meta[1][0], result.scheduler_name);
  EXPECT_EQ(meta[1][1], "1");

  const auto jobs = read_csv(dir / "run_jobs.csv");
  ASSERT_EQ(jobs.size(), 1 + result.job_records.size());
  EXPECT_EQ(jobs[0], (std::vector<std::string>{
                         "id", "name", "kind", "maps", "reduces",
                         "input_bytes", "shuffle_bytes", "submit", "finish",
                         "aborted", "tenant"}));
  bool comma_name = false;
  for (std::size_t i = 0; i < result.job_records.size(); ++i) {
    EXPECT_EQ(jobs[i + 1].size(), jobs[0].size());
    EXPECT_EQ(jobs[i + 1][1], result.job_records[i].name);
    comma_name = comma_name || jobs[i + 1][1] == "Grep_tiny, with comma";
  }
  EXPECT_TRUE(comma_name);

  const auto tasks = read_csv(dir / "run_tasks.csv");
  ASSERT_EQ(tasks.size(), 1 + result.task_records.size());
  EXPECT_EQ(tasks[0], (std::vector<std::string>{
                          "job", "kind", "is_map", "index", "node",
                          "locality", "assigned", "finished", "cost",
                          "net_bytes", "attempts"}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mrs::driver
