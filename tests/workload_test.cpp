// Tests for the Table II catalog, application profiles and batch builder.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "mrs/dfs/block_store.hpp"
#include "mrs/workload/table2.hpp"

namespace mrs::workload {
namespace {

using mapreduce::JobKind;

TEST(Table2, ThirtyJobsInCatalog) {
  const auto& cat = table2_catalog();
  ASSERT_EQ(cat.size(), 30u);
  EXPECT_EQ(cat.front().job_id, "01");
  EXPECT_EQ(cat.back().job_id, "30");
}

TEST(Table2, ExactPaperEntries) {
  const auto& cat = table2_catalog();
  // Spot-check entries straight out of Table II.
  EXPECT_EQ(cat[0].name, "Wordcount_10GB");
  EXPECT_EQ(cat[0].map_count, 88u);
  EXPECT_EQ(cat[0].reduce_count, 157u);
  EXPECT_EQ(cat[9].name, "Wordcount_100GB");
  EXPECT_EQ(cat[9].map_count, 930u);
  EXPECT_EQ(cat[9].reduce_count, 197u);
  EXPECT_EQ(cat[10].name, "Terasort_10GB");
  EXPECT_EQ(cat[10].map_count, 143u);
  EXPECT_EQ(cat[19].map_count, 824u);
  EXPECT_EQ(cat[29].name, "Grep_100GB");
  EXPECT_EQ(cat[29].map_count, 893u);
  EXPECT_EQ(cat[29].reduce_count, 184u);
}

TEST(Table2, BatchSplitByKind) {
  for (auto kind :
       {JobKind::kWordcount, JobKind::kTerasort, JobKind::kGrep}) {
    const auto batch = table2_batch(kind);
    EXPECT_EQ(batch.size(), 10u);
    for (const auto& d : batch) EXPECT_EQ(d.kind, kind);
  }
}

TEST(Table2, NominalSizesCoverTenToHundredGb) {
  for (const auto& batch : {table2_batch(JobKind::kWordcount),
                            table2_batch(JobKind::kTerasort),
                            table2_batch(JobKind::kGrep)}) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch[i].nominal_gb, 10.0 * double(i + 1));
    }
  }
}

TEST(Profiles, KindsMatch) {
  EXPECT_EQ(wordcount_profile().kind, JobKind::kWordcount);
  EXPECT_EQ(terasort_profile().kind, JobKind::kTerasort);
  EXPECT_EQ(grep_profile().kind, JobKind::kGrep);
  EXPECT_EQ(profile_for(JobKind::kTerasort).kind, JobKind::kTerasort);
}

TEST(Profiles, ShuffleIntensityOrdering) {
  // Fig. 3's split: Wordcount/Terasort are shuffle-heavy, Grep is not.
  EXPECT_GT(wordcount_profile().map_selectivity, 1.0);
  EXPECT_DOUBLE_EQ(terasort_profile().map_selectivity, 1.0);
  EXPECT_LT(grep_profile().map_selectivity, 0.3);
  // Grep maps scan faster than CPU-heavy Wordcount maps.
  EXPECT_GT(grep_profile().map_rate, wordcount_profile().map_rate);
}

TEST(MakeJobSpec, OneBlockPerMapTask) {
  const auto topo = net::make_single_rack(8);
  dfs::BlockStore store(8);
  dfs::BlockPlacer placer(&topo, Rng(1));
  WorkloadConfig cfg;
  const auto desc = table2_catalog()[0];  // 88 maps
  const auto spec =
      make_job_spec(desc, wordcount_profile(), store, placer, cfg, 5.0);
  EXPECT_EQ(spec.map_tasks.size(), 88u);
  EXPECT_EQ(spec.reduce_count, 157u);
  EXPECT_EQ(store.block_count(), 88u);
  EXPECT_DOUBLE_EQ(spec.submit_time, 5.0);
  for (const auto& mt : spec.map_tasks) {
    EXPECT_DOUBLE_EQ(mt.input_size, cfg.block_size);
    EXPECT_EQ(store.replicas(mt.block).size(), cfg.replication);
  }
}

TEST(MakeBatch, SubmitSpacing) {
  const auto topo = net::make_single_rack(8);
  dfs::BlockStore store(8);
  dfs::BlockPlacer placer(&topo, Rng(2));
  WorkloadConfig cfg;
  cfg.submit_spacing = 10.0;
  const auto specs =
      make_batch(table2_batch(JobKind::kGrep), store, placer, cfg);
  ASSERT_EQ(specs.size(), 10u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_DOUBLE_EQ(specs[i].submit_time, 10.0 * double(i));
  }
}

TEST(MakeBatch, WriterAnchoringConcentratesFirstReplicas) {
  const auto topo = net::make_single_rack(20);
  dfs::BlockStore store(20);
  dfs::BlockPlacer placer(&topo, Rng(3));
  WorkloadConfig cfg;
  cfg.writer_count = 2;
  const auto desc = table2_catalog()[20];  // Grep_10GB, 87 maps
  const auto spec =
      make_job_spec(desc, grep_profile(), store, placer, cfg, 0.0);
  // Every block has a replica on writer 0 or writer 1.
  for (const auto& mt : spec.map_tasks) {
    const bool anchored = store.is_replica(NodeId(0), mt.block) ||
                          store.is_replica(NodeId(1), mt.block);
    EXPECT_TRUE(anchored);
  }
  EXPECT_GT(store.bytes_on_node(NodeId(0)),
            store.bytes_on_node(NodeId(5)) * 2);
}

TEST(MakeBatch, ShuffleSizesMatchFig3Shape) {
  // Build all 30 jobs and check the intermediate-size distribution shape
  // the paper reports around Fig. 3: grep jobs are the small-shuffle
  // population, wordcount jobs the large one.
  const auto topo = net::make_single_rack(60);
  dfs::BlockStore store(60);
  dfs::BlockPlacer placer(&topo, Rng(4));
  WorkloadConfig cfg;
  const auto specs = make_batch(table2_catalog(), store, placer, cfg);
  double wc_shuffle = 0.0, grep_shuffle = 0.0;
  for (const auto& s : specs) {
    const double shuffle = s.total_input() * s.map_selectivity;
    if (s.kind == JobKind::kWordcount) wc_shuffle += shuffle;
    if (s.kind == JobKind::kGrep) grep_shuffle += shuffle;
  }
  EXPECT_GT(wc_shuffle, 10.0 * grep_shuffle);
}

class JobsCsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      (std::filesystem::temp_directory_path() / "pnats_jobs_test.csv")
          .string();
  void TearDown() override { std::remove(path_.c_str()); }
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
};

TEST_F(JobsCsvTest, ParsesValidFile) {
  write("name,kind,maps,reduces\n"
        "# a comment\n"
        "JobA,Wordcount,10,4\n"
        "JobB,Grep,7,2\n");
  const auto jobs = load_jobs_csv(path_);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "JobA");
  EXPECT_EQ(jobs[0].kind, JobKind::kWordcount);
  EXPECT_EQ(jobs[0].map_count, 10u);
  EXPECT_EQ(jobs[1].reduce_count, 2u);
  EXPECT_EQ(jobs[1].kind, JobKind::kGrep);
}

TEST_F(JobsCsvTest, RejectsUnknownKind) {
  write("name,kind,maps,reduces\nX,Sort,1,1\n");
  EXPECT_THROW(load_jobs_csv(path_), std::runtime_error);
}

TEST_F(JobsCsvTest, RejectsMalformedRow) {
  write("name,kind,maps,reduces\nX,Grep,1\n");
  EXPECT_THROW(load_jobs_csv(path_), std::runtime_error);
}

TEST_F(JobsCsvTest, RejectsZeroCounts) {
  write("name,kind,maps,reduces\nX,Grep,0,1\n");
  EXPECT_THROW(load_jobs_csv(path_), std::runtime_error);
}

TEST_F(JobsCsvTest, RejectsEmptyFile) {
  write("name,kind,maps,reduces\n");
  EXPECT_THROW(load_jobs_csv(path_), std::runtime_error);
}

/// The message load_jobs_csv throws on the current file, or "".
std::string jobs_error(const std::string& path) {
  try {
    (void)load_jobs_csv(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(JobsCsvTest, RejectsTrailingGarbageInACount) {
  write("name,kind,maps,reduces\nX,Grep,12abc,1\n");
  EXPECT_NE(jobs_error(path_).find(":2: bad integer value '12abc' for maps"),
            std::string::npos)
      << jobs_error(path_);
}

TEST_F(JobsCsvTest, RejectsExponentCount) {
  write("name,kind,maps,reduces\nX,Grep,4,1e9\n");
  EXPECT_NE(jobs_error(path_).find("bad integer value '1e9' for reduces"),
            std::string::npos)
      << jobs_error(path_);
}

TEST_F(JobsCsvTest, RejectsNegativeCount) {
  // A negative count must fail here, not wrap to 2^64 - 1 and fail later.
  write("name,kind,maps,reduces\n# comment\nX,Grep,-1,1\n");
  EXPECT_NE(jobs_error(path_).find(":3: bad integer value '-1' for maps"),
            std::string::npos)
      << jobs_error(path_);
}

TEST_F(JobsCsvTest, RejectsNonFiniteWeight) {
  for (const char* weight : {"inf", "nan", "-inf", "1e999"}) {
    write(std::string("name,kind,maps,reduces,weight\nX,Grep,1,1,") +
          weight + "\n");
    EXPECT_NE(jobs_error(path_).find("bad numeric value"), std::string::npos)
        << weight << ": " << jobs_error(path_);
  }
}

TEST_F(JobsCsvTest, QuotedNameKeepsItsComma) {
  write("name,kind,maps,reduces,weight,tenant\n"
        "\"sort, then grep\",Grep,3,2,0.5,1\n"
        "\"two\nlines\",Wordcount,4,1\n"
        "Y,Grep,x,1\n");
  EXPECT_NE(jobs_error(path_).find(":5: bad integer value 'x'"),
            std::string::npos)
      << jobs_error(path_);
  write("name,kind,maps,reduces,weight,tenant\n"
        "\"sort, then grep\",Grep,3,2,0.5,1\n");
  const auto jobs = load_jobs_csv(path_);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "sort, then grep");
  EXPECT_EQ(jobs[0].map_count, 3u);
  EXPECT_EQ(jobs[0].reduce_count, 2u);
  EXPECT_DOUBLE_EQ(jobs[0].weight, 0.5);
  EXPECT_EQ(jobs[0].tenant, TenantId(1));
}

TEST_F(JobsCsvTest, MissingFileThrows) {
  EXPECT_THROW(load_jobs_csv("/nonexistent/jobs.csv"), std::runtime_error);
}

TEST(MakeJobSpec, DeterministicPlacementPerSeed) {
  auto build = [] {
    const auto topo = net::make_single_rack(10);
    dfs::BlockStore store(10);
    dfs::BlockPlacer placer(&topo, Rng(9));
    WorkloadConfig cfg;
    const auto spec = make_job_spec(table2_catalog()[21], grep_profile(),
                                    store, placer, cfg, 0.0);
    std::vector<std::size_t> replicas;
    for (const auto& mt : spec.map_tasks) {
      for (NodeId n : store.replicas(mt.block)) replicas.push_back(n.value());
    }
    return replicas;
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace mrs::workload
