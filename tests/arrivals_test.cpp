// Tests for the open-loop arrival generator: determinism per
// (seed, config), stream independence across split labels, process shape
// sanity, the job-mix sampler, and trace CSV round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "mrs/workload/arrivals.hpp"

namespace mrs::workload {
namespace {

ArrivalConfig poisson_config(double rate_per_hour = 360.0,
                             Seconds duration = 3600.0) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kPoisson;
  cfg.rate_per_hour = rate_per_hour;
  cfg.duration = duration;
  return cfg;
}

TEST(Arrivals, DeterministicPerSeedAndConfig) {
  const ArrivalConfig cfg = poisson_config();
  const auto a = generate_arrivals(cfg, Rng(7).split("arrivals"));
  const auto b = generate_arrivals(cfg, Rng(7).split("arrivals"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
}

TEST(Arrivals, SeedChangesSequence) {
  const ArrivalConfig cfg = poisson_config();
  const auto a = generate_arrivals(cfg, Rng(1));
  const auto b = generate_arrivals(cfg, Rng(2));
  bool any_diff = a.size() != b.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = !(a[i] == b[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Arrivals, DifferentStreamLabelsUncorrelated) {
  // Two children of the same root with different labels must produce
  // unrelated streams: no shared arrival instants at all.
  const ArrivalConfig cfg = poisson_config();
  const Rng root(42);
  const auto a = generate_arrivals(cfg, root.split("stream-a"));
  const auto b = generate_arrivals(cfg, root.split("stream-b"));
  std::size_t shared = 0;
  std::size_t j = 0;
  for (const auto& arr : a) {
    while (j < b.size() && b[j].time < arr.time) ++j;
    if (j < b.size() && b[j].time == arr.time) ++shared;
  }
  EXPECT_EQ(shared, 0u);
}

TEST(Arrivals, PoissonCountMatchesRate) {
  // 360 jobs/h over 1 h: count ~ Poisson(360), sd ~ 19. A +/-5 sd band
  // keeps the test deterministic-robust across seed choices.
  const auto arrivals = generate_arrivals(poisson_config(), Rng(42));
  EXPECT_GT(arrivals.size(), 265u);
  EXPECT_LT(arrivals.size(), 455u);
}

TEST(Arrivals, SortedWithinHorizonAndUniquelyNamed) {
  const auto arrivals = generate_arrivals(poisson_config(), Rng(3));
  ASSERT_FALSE(arrivals.empty());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].time, 0.0);
    EXPECT_LT(arrivals[i].time, 3600.0);
    EXPECT_GE(arrivals[i].job.map_count, 1u);
    EXPECT_GE(arrivals[i].job.reduce_count, 1u);
    if (i > 0) {
      EXPECT_GE(arrivals[i].time, arrivals[i - 1].time);
      EXPECT_NE(arrivals[i].job.name, arrivals[i - 1].job.name);
    }
  }
}

TEST(Arrivals, MixWeightsSelectKind) {
  ArrivalConfig cfg = poisson_config();
  cfg.mix.wordcount_weight = 0.0;
  cfg.mix.terasort_weight = 0.0;
  cfg.mix.grep_weight = 1.0;
  const auto arrivals = generate_arrivals(cfg, Rng(5));
  ASSERT_FALSE(arrivals.empty());
  for (const auto& a : arrivals) {
    EXPECT_EQ(a.job.kind, mapreduce::JobKind::kGrep);
  }
}

TEST(Arrivals, SizeSkewFavorsSmallJobs) {
  ArrivalConfig skewed = poisson_config();
  skewed.mix.size_skew = 3.0;
  ArrivalConfig uniform = poisson_config();
  uniform.mix.size_skew = 0.0;
  auto mean_maps = [](const std::vector<Arrival>& as) {
    double sum = 0.0;
    for (const auto& a : as) sum += static_cast<double>(a.job.map_count);
    return sum / static_cast<double>(as.size());
  };
  const auto s = generate_arrivals(skewed, Rng(11));
  const auto u = generate_arrivals(uniform, Rng(11));
  EXPECT_LT(mean_maps(s), mean_maps(u));
}

TEST(Arrivals, MapCountScaleShrinksJobs) {
  ArrivalConfig cfg = poisson_config();
  cfg.mix.map_count_scale = 0.01;  // even the 930-map job shrinks to ~9
  const auto arrivals = generate_arrivals(cfg, Rng(9));
  for (const auto& a : arrivals) {
    EXPECT_LE(a.job.map_count, 10u);
    EXPECT_GE(a.job.map_count, 1u);  // floored, never zero
  }
}

TEST(Arrivals, SizeJitterVariesSizesAroundCatalog) {
  ArrivalConfig cfg = poisson_config();
  cfg.mix.size_jitter_sigma = 0.5;
  cfg.mix.size_skew = 0.0;
  const auto arrivals = generate_arrivals(cfg, Rng(13));
  // Catalog map counts are fixed values; with jitter we must see counts
  // that are not in the catalog (e.g. odd perturbations of 88, 160, ...).
  bool any_off_catalog = false;
  for (const auto& a : arrivals) {
    bool in_catalog = false;
    for (const auto& d : table2_catalog()) {
      if (a.job.map_count == d.map_count) in_catalog = true;
    }
    if (!in_catalog) any_off_catalog = true;
  }
  EXPECT_TRUE(any_off_catalog);
}

TEST(Arrivals, MmppDeterministicAndBurstierThanPoisson) {
  ArrivalConfig cfg = poisson_config(240.0, 4.0 * 3600.0);
  cfg.process = ArrivalProcess::kMmpp;
  cfg.mmpp.burst_rate_multiplier = 6.0;
  cfg.mmpp.mean_calm_sojourn = 400.0;
  cfg.mmpp.mean_burst_sojourn = 200.0;
  const auto a = generate_arrivals(cfg, Rng(21));
  const auto b = generate_arrivals(cfg, Rng(21));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);

  // Index of dispersion of per-minute counts: ~1 for Poisson, > 1 for a
  // bursty MMPP. Computed on fixed seeds, so the comparison is stable.
  auto dispersion = [&](const std::vector<Arrival>& as) {
    const std::size_t bins = static_cast<std::size_t>(cfg.duration / 60.0);
    std::vector<double> counts(bins, 0.0);
    for (const auto& arr : as) {
      counts[std::min(bins - 1, static_cast<std::size_t>(arr.time / 60.0))]
          += 1.0;
    }
    double mean = 0.0;
    for (double c : counts) mean += c;
    mean /= static_cast<double>(bins);
    double var = 0.0;
    for (double c : counts) var += (c - mean) * (c - mean);
    var /= static_cast<double>(bins - 1);
    return var / mean;
  };
  ArrivalConfig pcfg = cfg;
  pcfg.process = ArrivalProcess::kPoisson;
  const auto p = generate_arrivals(pcfg, Rng(21));
  EXPECT_GT(dispersion(a), 1.5 * dispersion(p));
}

TEST(Arrivals, TraceRoundTripsThroughCsv) {
  ArrivalConfig cfg = poisson_config(120.0, 1800.0);
  cfg.mix.size_jitter_sigma = 0.3;
  const auto generated = generate_arrivals(cfg, Rng(17));
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_rt.csv")
          .string();
  save_arrival_trace(path, generated);
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), generated.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, generated[i].time);
    EXPECT_EQ(loaded[i].job.name, generated[i].job.name);
    EXPECT_EQ(loaded[i].job.kind, generated[i].job.kind);
    EXPECT_DOUBLE_EQ(loaded[i].job.nominal_gb, generated[i].job.nominal_gb);
    EXPECT_EQ(loaded[i].job.map_count, generated[i].job.map_count);
    EXPECT_EQ(loaded[i].job.reduce_count, generated[i].job.reduce_count);
  }
  // Second round trip is exact (load is a fixed point of save+load).
  save_arrival_trace(path, loaded);
  const auto again = load_arrival_trace(path);
  ASSERT_EQ(again.size(), loaded.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_TRUE(again[i] == loaded[i]);
  }
  std::filesystem::remove(path);
}

TEST(Arrivals, TraceProcessDropsBeyondHorizon) {
  const auto generated = generate_arrivals(poisson_config(), Rng(19));
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_hz.csv")
          .string();
  save_arrival_trace(path, generated);
  ArrivalConfig replay;
  replay.process = ArrivalProcess::kTrace;
  replay.trace_path = path;
  replay.duration = 600.0;
  const auto loaded = generate_arrivals(replay, Rng(0));
  ASSERT_FALSE(loaded.empty());
  for (const auto& a : loaded) EXPECT_LT(a.time, 600.0);
  EXPECT_LT(loaded.size(), generated.size());
  std::filesystem::remove(path);
}

TEST(Arrivals, MalformedTraceThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_bad.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces\n";
    out << "12.5,job_a,Wordcount,4\n";  // missing field
  }
  EXPECT_THROW(load_arrival_trace(path), std::runtime_error);
  EXPECT_THROW(load_arrival_trace("/nonexistent/arrivals.csv"),
               std::runtime_error);
  std::filesystem::remove(path);
}

ArrivalConfig two_tenant_config(double bursty_rate = 240.0) {
  ArrivalConfig cfg;
  cfg.duration = 1800.0;
  TenantConfig steady;
  steady.name = "steady";
  steady.rate_per_hour = 240.0;
  steady.weight = 4.0;
  TenantConfig bursty;
  bursty.name = "bursty";
  bursty.process = ArrivalProcess::kMmpp;
  bursty.rate_per_hour = bursty_rate;
  bursty.weight = 1.0;
  cfg.tenants = {steady, bursty};
  return cfg;
}

TEST(Arrivals, MultiTenantTagsAndWeightsEveryJob) {
  const auto arrivals = generate_arrivals(two_tenant_config(), Rng(31));
  ASSERT_FALSE(arrivals.empty());
  std::size_t seen[2] = {0, 0};
  Seconds prev = 0.0;
  for (const auto& a : arrivals) {
    EXPECT_GE(a.time, prev);
    prev = a.time;
    EXPECT_LT(a.time, 1800.0);
    ASSERT_LT(a.job.tenant.value(), 2u);
    ++seen[a.job.tenant.value()];
    const bool t0 = a.job.tenant == TenantId(0);
    EXPECT_DOUBLE_EQ(a.job.weight, t0 ? 4.0 : 1.0);
    EXPECT_NE(a.job.name.find(t0 ? "@t0" : "@t1"), std::string::npos);
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
}

TEST(Arrivals, MultiTenantDeterministicPerSeed) {
  const ArrivalConfig cfg = two_tenant_config();
  const auto a = generate_arrivals(cfg, Rng(7).split("arrivals"));
  const auto b = generate_arrivals(cfg, Rng(7).split("arrivals"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
}

TEST(Arrivals, SteadyTenantStreamInvariantToNeighbourRate) {
  // Each tenant draws from its own split streams, so sweeping the bursty
  // neighbour's rate must not move a single steady-tenant arrival (the
  // isolation bench's control variable). Names carry the merged global
  // sequence number, so compare times and job shapes.
  auto tenant0 = [](const std::vector<Arrival>& all) {
    std::vector<Arrival> out;
    for (const auto& a : all) {
      if (a.job.tenant == TenantId(0)) out.push_back(a);
    }
    return out;
  };
  const auto calm = tenant0(generate_arrivals(two_tenant_config(240.0),
                                              Rng(13)));
  const auto loud = tenant0(generate_arrivals(two_tenant_config(960.0),
                                              Rng(13)));
  ASSERT_EQ(calm.size(), loud.size());
  ASSERT_FALSE(calm.empty());
  for (std::size_t i = 0; i < calm.size(); ++i) {
    EXPECT_DOUBLE_EQ(calm[i].time, loud[i].time);
    EXPECT_EQ(calm[i].job.kind, loud[i].job.kind);
    EXPECT_EQ(calm[i].job.map_count, loud[i].job.map_count);
    EXPECT_EQ(calm[i].job.reduce_count, loud[i].job.reduce_count);
  }
}

TEST(Arrivals, MultiTenantTraceRoundTripPreservesTenantAndWeight) {
  const auto generated = generate_arrivals(two_tenant_config(), Rng(37));
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_mt.csv")
          .string();
  save_arrival_trace(path, generated);
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), generated.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, generated[i].time);
    EXPECT_EQ(loaded[i].job.name, generated[i].job.name);
    EXPECT_DOUBLE_EQ(loaded[i].job.nominal_gb, generated[i].job.nominal_gb);
    EXPECT_EQ(loaded[i].job.tenant, generated[i].job.tenant);
    EXPECT_DOUBLE_EQ(loaded[i].job.weight, generated[i].job.weight);
  }
  // Load is a fixed point of save+load, tenant tags included.
  save_arrival_trace(path, loaded);
  const auto again = load_arrival_trace(path);
  ASSERT_EQ(again.size(), loaded.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_TRUE(again[i] == loaded[i]);
  }
  std::filesystem::remove(path);
}

TEST(Arrivals, MultiTenantRejectsInvalidTenantConfig) {
  ArrivalConfig bad_rate = two_tenant_config();
  bad_rate.tenants[1].rate_per_hour = 0.0;
  EXPECT_DEATH((void)generate_arrivals(bad_rate, Rng(1)), "rate");
  ArrivalConfig bad_weight = two_tenant_config();
  bad_weight.tenants[0].weight = -1.0;
  EXPECT_DEATH((void)generate_arrivals(bad_weight, Rng(1)), "weight");
  ArrivalConfig bad_process = two_tenant_config();
  bad_process.tenants[0].process = ArrivalProcess::kTrace;
  EXPECT_DEATH((void)generate_arrivals(bad_process, Rng(1)), "");
}

TEST(Arrivals, LegacyFiveColumnTraceLoadsWithDefaults) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_l5.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces\n";
    out << "1.5,old_job,Wordcount,8,4\n";
  }
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].time, 1.5);
  EXPECT_EQ(loaded[0].job.name, "old_job");
  EXPECT_DOUBLE_EQ(loaded[0].job.nominal_gb, 0.0);
  EXPECT_EQ(loaded[0].job.map_count, 8u);
  EXPECT_EQ(loaded[0].job.reduce_count, 4u);
  EXPECT_EQ(loaded[0].job.tenant, TenantId(0));
  EXPECT_DOUBLE_EQ(loaded[0].job.weight, 1.0);
  std::filesystem::remove(path);
}

TEST(Arrivals, LegacySevenColumnTraceLoadsTenantAndWeight) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_l7.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces,tenant,weight\n";
    out << "2.25,old_mt,Grep,6,3,4,2.5\n";
  }
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].job.nominal_gb, 0.0);
  EXPECT_EQ(loaded[0].job.tenant, TenantId(4));
  EXPECT_DOUBLE_EQ(loaded[0].job.weight, 2.5);
  std::filesystem::remove(path);
}

TEST(Arrivals, TraceRoundTripsQuotedNames) {
  // Commas, quotes and newlines inside job names must survive save->load
  // (the writer escapes, the record-level reader inverts it).
  Arrival a;
  a.time = 3.0;
  a.job.name = "weird, \"name\"\nwith newline";
  a.job.kind = mapreduce::JobKind::kTerasort;
  a.job.nominal_gb = 12.5;
  a.job.map_count = 5;
  a.job.reduce_count = 2;
  a.job.tenant = TenantId(1);
  a.job.weight = 3.0;
  a.job.job_id = "1";
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_q.csv")
          .string();
  save_arrival_trace(path, std::vector<Arrival>{a});
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0] == a);
  std::filesystem::remove(path);
}

TEST(Arrivals, MalformedNumericReportsPathAndLine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_num.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces\n";
    out << "1.0,fine,Grep,4,2\n";
    out << "2.0,broken,Grep,4x,2\n";  // trailing junk in maps (line 3)
  }
  try {
    (void)load_arrival_trace(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("maps"), std::string::npos) << what;
  }
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces\n";
    out << "oops,bad_time,Grep,4,2\n";
  }
  try {
    (void)load_arrival_trace(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":2"), std::string::npos) << what;
    EXPECT_NE(what.find("time"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Arrivals, NonFiniteTraceNumbersAreRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_inf.csv")
          .string();
  const std::string header = "time,name,kind,gb,maps,reduces,tenant,weight\n";
  for (const std::string row : {"inf,a,Grep,1,4,2,0,1\n",
                                "1.0,b,Grep,nan,4,2,0,1\n",
                                "1.0,c,Grep,1,4,2,0,inf\n"}) {
    {
      std::ofstream out(path);
      out << header << row;
    }
    try {
      (void)load_arrival_trace(path);
      ADD_FAILURE() << "accepted " << row;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path + ":2: bad numeric value"), std::string::npos)
          << what;
    }
  }
  std::filesystem::remove(path);
}

TEST(Arrivals, TraceHorizonCutRenumbersJobIds) {
  // Ids are assigned on load (sorted order); the duration filter then
  // drops rows from anywhere in that order, so generate_arrivals must
  // renumber — ids stay contiguous 1..n for the engine and pairing.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_cut.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,gb,maps,reduces,tenant,weight\n";
    out << "700,late_a,Grep,1,4,2,0,1\n";
    out << "10,early_a,Terasort,1,8,4,0,1\n";
    out << "900,late_b,Wordcount,1,4,2,0,1\n";
    out << "50,early_b,Grep,1,4,2,0,1\n";
  }
  ArrivalConfig replay;
  replay.process = ArrivalProcess::kTrace;
  replay.trace_path = path;
  replay.duration = 600.0;
  const auto kept = generate_arrivals(replay, Rng(0));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].job.name, "early_a");
  EXPECT_EQ(kept[0].job.job_id, "1");
  EXPECT_EQ(kept[1].job.name, "early_b");
  EXPECT_EQ(kept[1].job.job_id, "2");
  std::filesystem::remove(path);
}

TEST(Arrivals, TraceUnsortedInputIsSortedOnLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pnats_arrivals_srt.csv")
          .string();
  {
    std::ofstream out(path);
    out << "time,name,kind,maps,reduces\n";
    out << "300,late,Grep,4,2\n";
    out << "10,early,Terasort,8,4\n";
  }
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].job.name, "early");
  EXPECT_EQ(loaded[1].job.name, "late");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mrs::workload
