// Fast-vs-naive equivalence: the incremental scheduling structures (the
// cluster's free-slot index and the per-job C_ave row-sum cache) are pure
// optimizations — every placement decision, record stream and derived
// metric must be byte-identical to the naive full-scan path
// (ExperimentConfig::naive_scheduler_path). Parameterized over the
// schedulers that read the free-slot sets and over seeds, on both the
// Table II-shaped batch and a saturating Poisson stream.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <tuple>

#include "mrs/driver/experiment.hpp"
#include "mrs/driver/stream_experiment.hpp"

namespace mrs::driver {
namespace {

std::vector<workload::JobDescription> batch_jobs() {
  // One shrunk job per Table II application plus a second Wordcount, so
  // the walk sees a multi-job queue throughout.
  using mapreduce::JobKind;
  return {
      {"01", "Wordcount_small", JobKind::kWordcount, 1, 14, 6},
      {"02", "Terasort_small", JobKind::kTerasort, 1, 12, 6},
      {"03", "Grep_small", JobKind::kGrep, 1, 10, 4},
      {"04", "Wordcount_small2", JobKind::kWordcount, 1, 8, 3},
  };
}

void expect_identical_records(const ExperimentResult& naive,
                              const ExperimentResult& fast) {
  EXPECT_EQ(naive.completed, fast.completed);
  ASSERT_EQ(naive.task_records.size(), fast.task_records.size());
  for (std::size_t i = 0; i < naive.task_records.size(); ++i) {
    const auto& n = naive.task_records[i];
    const auto& f = fast.task_records[i];
    EXPECT_EQ(n.job, f.job) << "task " << i;
    EXPECT_EQ(n.is_map, f.is_map) << "task " << i;
    EXPECT_EQ(n.index, f.index) << "task " << i;
    EXPECT_EQ(n.node, f.node) << "task " << i;
    EXPECT_EQ(n.locality, f.locality) << "task " << i;
    EXPECT_EQ(n.attempts, f.attempts) << "task " << i;
    EXPECT_DOUBLE_EQ(n.assigned_at, f.assigned_at) << "task " << i;
    EXPECT_DOUBLE_EQ(n.finished_at, f.finished_at) << "task " << i;
    EXPECT_DOUBLE_EQ(n.placement_cost, f.placement_cost) << "task " << i;
    EXPECT_DOUBLE_EQ(n.network_bytes, f.network_bytes) << "task " << i;
  }
  ASSERT_EQ(naive.job_records.size(), fast.job_records.size());
  for (std::size_t i = 0; i < naive.job_records.size(); ++i) {
    const auto& n = naive.job_records[i];
    const auto& f = fast.job_records[i];
    EXPECT_EQ(n.name, f.name);
    EXPECT_DOUBLE_EQ(n.submit_time, f.submit_time);
    EXPECT_DOUBLE_EQ(n.finish_time, f.finish_time);
    EXPECT_DOUBLE_EQ(n.shuffle_bytes, f.shuffle_bytes);
  }
  EXPECT_DOUBLE_EQ(naive.makespan, fast.makespan);
}

void expect_identical_results(const ExperimentResult& naive,
                              const ExperimentResult& fast) {
  expect_identical_records(naive, fast);
  EXPECT_EQ(naive.events_processed, fast.events_processed);
}

class EquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, std::uint64_t>> {};

TEST_P(EquivalenceTest, BatchRunIdentical) {
  const auto [kind, seed] = GetParam();
  ExperimentConfig cfg = paper_config(batch_jobs(), kind, seed);
  cfg.nodes = 12;
  ExperimentConfig naive_cfg = cfg;
  naive_cfg.naive_scheduler_path = true;
  const auto fast = run_experiment(cfg);
  const auto naive = run_experiment(naive_cfg);
  EXPECT_TRUE(fast.completed);
  expect_identical_results(naive, fast);
}

TEST_P(EquivalenceTest, SaturationStreamIdentical) {
  const auto [kind, seed] = GetParam();
  StreamConfig cfg;
  cfg.base = paper_config(batch_jobs(), kind, seed);
  cfg.base.nodes = 8;
  cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
  cfg.arrivals.rate_per_hour = 480.0;  // pushes the small cluster hard
  cfg.arrivals.duration = 400.0;
  cfg.arrivals.mix.map_count_scale = 0.02;
  cfg.arrivals.mix.reduce_count_scale = 0.02;
  cfg.warmup = 50.0;
  StreamConfig naive_cfg = cfg;
  naive_cfg.base.naive_scheduler_path = true;
  const auto fast = run_stream_experiment(cfg);
  const auto naive = run_stream_experiment(naive_cfg);
  expect_identical_results(naive.run, fast.run);
  // The derived steady-state summaries follow, but compare them anyway:
  // they are the numbers the saturation sweep publishes.
  EXPECT_EQ(naive.steady.jobs_submitted, fast.steady.jobs_submitted);
  EXPECT_EQ(naive.steady.jobs_completed, fast.steady.jobs_completed);
  EXPECT_EQ(naive.steady.jobs_unfinished, fast.steady.jobs_unfinished);
  EXPECT_DOUBLE_EQ(naive.steady.throughput_jobs_per_hour,
                   fast.steady.throughput_jobs_per_hour);
  EXPECT_DOUBLE_EQ(naive.steady.response_time.mean,
                   fast.steady.response_time.mean);
  EXPECT_DOUBLE_EQ(naive.steady.response_time.p50,
                   fast.steady.response_time.p50);
  EXPECT_DOUBLE_EQ(naive.steady.response_time.p99,
                   fast.steady.response_time.p99);
  EXPECT_DOUBLE_EQ(naive.steady.queueing_delay.mean,
                   fast.steady.queueing_delay.mean);
  EXPECT_DOUBLE_EQ(naive.steady.mean_jobs_in_system,
                   fast.steady.mean_jobs_in_system);
  EXPECT_DOUBLE_EQ(naive.steady.map_slot_utilization,
                   fast.steady.map_slot_utilization);
  EXPECT_DOUBLE_EQ(naive.steady.reduce_slot_utilization,
                   fast.steady.reduce_slot_utilization);
}

TEST_P(EquivalenceTest, StreamedTraceReplayIdenticalToBuffered) {
  // The streaming ingest path (TraceStreamReader + run_experiment_streamed,
  // one pending arrival in memory) must reproduce the buffered trace
  // replay record-for-record. events_processed is excluded: the streaming
  // pump adds its own re-arm events without touching any record.
  const auto [kind, seed] = GetParam();
  StreamConfig cfg;
  cfg.base = paper_config(batch_jobs(), kind, seed);
  cfg.base.nodes = 8;
  cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
  cfg.arrivals.rate_per_hour = 480.0;
  cfg.arrivals.duration = 400.0;
  cfg.arrivals.mix.map_count_scale = 0.02;
  cfg.arrivals.mix.reduce_count_scale = 0.02;
  cfg.warmup = 50.0;
  const auto arrivals = stream_arrivals(cfg);
  ASSERT_FALSE(arrivals.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pnats_eq_trace_" + std::string(to_string(kind)) + "_" +
        std::to_string(seed) + ".csv"))
          .string();
  workload::save_arrival_trace(path, arrivals);

  cfg.arrivals.process = workload::ArrivalProcess::kTrace;
  cfg.arrivals.trace_path = path;
  StreamConfig streamed_cfg = cfg;
  streamed_cfg.stream_trace = true;
  const auto buffered = run_stream_experiment(cfg);
  const auto streamed = run_stream_experiment(streamed_cfg);
  EXPECT_TRUE(streamed.arrivals.empty());  // never buffered
  expect_identical_records(buffered.run, streamed.run);
  EXPECT_EQ(buffered.steady.jobs_submitted, streamed.steady.jobs_submitted);
  EXPECT_EQ(buffered.steady.jobs_completed, streamed.steady.jobs_completed);
  EXPECT_DOUBLE_EQ(buffered.steady.throughput_jobs_per_hour,
                   streamed.steady.throughput_jobs_per_hour);
  EXPECT_DOUBLE_EQ(buffered.steady.response_time.p99,
                   streamed.steady.response_time.p99);
  EXPECT_DOUBLE_EQ(buffered.steady.mean_jobs_in_system,
                   streamed.steady.mean_jobs_in_system);
  std::filesystem::remove(path);
}

TEST_P(EquivalenceTest, AlwaysAdmitControllerIsNoop) {
  // The default control plane (always-admit policy, blacklisting off) must
  // be a provable no-op: a run with the controller installed is
  // byte-identical to a run with no controller at all, with and without
  // failure injection.
  const auto [kind, seed] = GetParam();
  for (const Seconds mtbf : {0.0, 120.0}) {
    StreamConfig cfg;
    cfg.base = paper_config(batch_jobs(), kind, seed);
    cfg.base.nodes = 8;
    cfg.base.failures.cluster_mtbf = mtbf;
    cfg.arrivals.process = workload::ArrivalProcess::kPoisson;
    cfg.arrivals.rate_per_hour = 480.0;  // saturating: nonempty backlog
    cfg.arrivals.duration = 400.0;
    cfg.arrivals.mix.map_count_scale = 0.02;
    cfg.arrivals.mix.reduce_count_scale = 0.02;
    cfg.warmup = 50.0;
    StreamConfig bare_cfg = cfg;
    bare_cfg.base.enable_admission = false;
    const auto with = run_stream_experiment(cfg);
    const auto bare = run_stream_experiment(bare_cfg);
    expect_identical_results(bare.run, with.run);
    EXPECT_EQ(with.run.admission_policy, "always-admit");
    EXPECT_TRUE(bare.run.admission_policy.empty());
    // The controller's ledger agrees: everything admitted immediately.
    EXPECT_EQ(with.steady.jobs_rejected, 0u);
    EXPECT_EQ(with.steady.jobs_deferred, 0u);
    EXPECT_EQ(with.steady.jobs_submitted, bare.steady.jobs_submitted);
    EXPECT_EQ(with.steady.jobs_completed, bare.steady.jobs_completed);
    EXPECT_DOUBLE_EQ(with.steady.response_time.p99,
                     bare.steady.response_time.p99);
  }
}

StreamConfig two_tenant_stream(SchedulerKind kind, std::uint64_t seed) {
  StreamConfig cfg;
  cfg.base = paper_config(batch_jobs(), kind, seed);
  cfg.base.nodes = 8;
  cfg.arrivals.duration = 400.0;
  cfg.arrivals.mix.map_count_scale = 0.02;
  cfg.arrivals.mix.reduce_count_scale = 0.02;
  cfg.warmup = 50.0;
  workload::TenantConfig steady;
  steady.rate_per_hour = 240.0;
  steady.weight = 4.0;
  steady.mix = cfg.arrivals.mix;
  workload::TenantConfig bursty;
  bursty.process = workload::ArrivalProcess::kMmpp;
  bursty.rate_per_hour = 240.0;
  bursty.weight = 1.0;
  bursty.mix = cfg.arrivals.mix;
  cfg.arrivals.tenants = {steady, bursty};
  return cfg;
}

void expect_identical_tenant_summaries(
    const metrics::SteadyStateSummary& a,
    const metrics::SteadyStateSummary& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const auto& x = a.tenants[i];
    const auto& y = b.tenants[i];
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.jobs_submitted, y.jobs_submitted);
    EXPECT_EQ(x.jobs_completed, y.jobs_completed);
    EXPECT_EQ(x.jobs_unfinished, y.jobs_unfinished);
    EXPECT_EQ(x.jobs_rejected, y.jobs_rejected);
    EXPECT_EQ(x.jobs_deferred, y.jobs_deferred);
    EXPECT_DOUBLE_EQ(x.throughput_jobs_per_hour, y.throughput_jobs_per_hour);
    EXPECT_DOUBLE_EQ(x.response_time.mean, y.response_time.mean);
    EXPECT_DOUBLE_EQ(x.response_time.p99, y.response_time.p99);
    EXPECT_DOUBLE_EQ(x.queueing_delay.mean, y.queueing_delay.mean);
    EXPECT_DOUBLE_EQ(x.mean_jobs_in_system, y.mean_jobs_in_system);
  }
}

TEST(MultiTenant, TenantSlicesSumToAggregate) {
  // Two-tenant stream under the fair scheduler: every arrival belongs to
  // exactly one tenant, so the per-tenant slices must partition the
  // aggregate steady-state counts.
  StreamConfig cfg = two_tenant_stream(SchedulerKind::kFair, 5);
  const auto r = run_stream_experiment(cfg);
  ASSERT_EQ(r.steady.tenants.size(), 2u);
  for (const auto& a : r.arrivals) {
    EXPECT_LT(a.job.tenant.value(), 2u);
  }
  std::size_t submitted = 0, completed = 0, unfinished = 0;
  std::size_t rejected = 0, deferred = 0;
  double occupancy = 0.0;
  for (const auto& t : r.steady.tenants) {
    submitted += t.jobs_submitted;
    completed += t.jobs_completed;
    unfinished += t.jobs_unfinished;
    rejected += t.jobs_rejected;
    deferred += t.jobs_deferred;
    occupancy += t.mean_jobs_in_system;
  }
  EXPECT_EQ(submitted, r.steady.jobs_submitted);
  EXPECT_EQ(completed, r.steady.jobs_completed);
  EXPECT_EQ(unfinished, r.steady.jobs_unfinished);
  EXPECT_EQ(rejected, r.steady.jobs_rejected);
  EXPECT_EQ(deferred, r.steady.jobs_deferred);
  EXPECT_DOUBLE_EQ(occupancy, r.steady.mean_jobs_in_system);
}

TEST(MultiTenant, SerialAndParallelRunsIdentical) {
  // The per-tenant summaries must be byte-identical whether the stream
  // runs alone in this thread or concurrently with an unrelated run, on
  // a hand-made thread or through run_stream_experiments' striped
  // fan-out: the determinism contract extends to the tenant slices.
  const StreamConfig cfg = two_tenant_stream(SchedulerKind::kFair, 9);
  const StreamConfig noisy = two_tenant_stream(SchedulerKind::kPna, 10);
  const auto serial = run_stream_experiment(cfg);

  StreamResult threaded, other;
  std::thread worker([&] { threaded = run_stream_experiment(cfg); });
  std::thread noise([&] { other = run_stream_experiment(noisy); });
  worker.join();
  noise.join();
  const auto striped =
      run_stream_experiments(std::vector<StreamConfig>{noisy, cfg});
  ASSERT_EQ(striped.size(), 2u);
  expect_identical_results(serial.run, threaded.run);
  expect_identical_tenant_summaries(serial.steady, threaded.steady);
  expect_identical_results(serial.run, striped[1].run);
  expect_identical_tenant_summaries(serial.steady, striped[1].steady);
  expect_identical_results(other.run, striped[0].run);
}

TEST(MultiTenant, AlwaysAdmitNoQuotaIsNoopOnTenantStream) {
  // The always-admit + no-quota control plane must stay a provable no-op
  // on the multi-tenant path too: with the controller removed entirely the
  // run is byte-identical.
  StreamConfig cfg = two_tenant_stream(SchedulerKind::kFair, 11);
  StreamConfig bare_cfg = cfg;
  bare_cfg.base.enable_admission = false;
  const auto with = run_stream_experiment(cfg);
  const auto bare = run_stream_experiment(bare_cfg);
  expect_identical_results(bare.run, with.run);
  EXPECT_EQ(with.steady.jobs_rejected, 0u);
  EXPECT_EQ(with.steady.jobs_deferred, 0u);
  expect_identical_tenant_summaries(bare.steady, with.steady);
}

TEST(MultiTenant, WeightedFairOrderStillDrains) {
  StreamConfig cfg = two_tenant_stream(SchedulerKind::kFair, 12);
  cfg.base.fair.job_order = mapreduce::JobOrder::kWeightedFair;
  const auto r = run_stream_experiment(cfg);
  EXPECT_TRUE(r.run.completed);
  EXPECT_GT(r.steady.jobs_completed, 0u);
  ASSERT_EQ(r.steady.tenants.size(), 2u);
}

hetero::HeteroConfig fast_slow_classes() {
  hetero::NodeClass fast;
  fast.name = "fast";
  fast.cpu_speed = 2.0;
  fast.map_slots = 6;
  fast.reduce_slots = 3;
  fast.link_scale = 2.0;
  hetero::NodeClass slow;
  slow.name = "slow";
  slow.cpu_speed = 0.5;
  slow.map_slots = 2;
  slow.reduce_slots = 1;
  slow.link_scale = 0.5;
  hetero::HeteroConfig h;
  h.classes = {fast, slow};
  return h;
}

TEST(Heterogeneity, SingleDefaultClassIsNoop) {
  // A one-class profile that restates the homogeneous NodeConfig must be a
  // provable no-op: enabling the subsystem without introducing any actual
  // heterogeneity reproduces the seed behavior byte-identically (the class
  // draw streams are labeled splits the baseline never touches, the speed
  // factor is exactly 1.0, and a 1.0 link scale never rewrites capacity).
  for (const auto kind : {SchedulerKind::kPna, SchedulerKind::kFair}) {
    ExperimentConfig plain = paper_config(batch_jobs(), kind, 3);
    plain.nodes = 12;
    ExperimentConfig wrapped = plain;
    hetero::NodeClass dflt;  // mirrors the paper_config NodeConfig
    dflt.name = "default";
    dflt.cpu_speed = 1.0;
    dflt.map_slots = plain.node.map_slots;
    dflt.reduce_slots = plain.node.reduce_slots;
    dflt.disk_rate = plain.node.disk_rate;
    dflt.link_scale = 1.0;
    wrapped.hetero.classes = {dflt};
    const auto base = run_experiment(plain);
    const auto hetero_run = run_experiment(wrapped);
    EXPECT_TRUE(base.completed);
    expect_identical_results(base, hetero_run);
    // The wrapped run still reports its (single-class) composition.
    ASSERT_EQ(hetero_run.node_classes.size(), 1u);
    EXPECT_EQ(hetero_run.node_classes[0].nodes, 12u);
    EXPECT_TRUE(base.node_classes.empty());
  }
}

TEST(Heterogeneity, FastVsNaiveIdenticalOnHeteroCluster) {
  // The incremental-structure equivalence contract extends to
  // heterogeneous clusters: per-class slot counts change the free-set
  // walks and the cost-mix blend feeds speed factors into the scores, but
  // placements must stay byte-identical to the naive path.
  struct Case {
    SchedulerKind kind;
    double cost_mix;
  };
  for (const auto& [kind, cost_mix] :
       {Case{SchedulerKind::kPna, 0.0}, Case{SchedulerKind::kPna, 0.5},
        Case{SchedulerKind::kPna, 1.0},
        Case{SchedulerKind::kUnrelated, 0.0},
        Case{SchedulerKind::kMinCost, 0.0}}) {
    ExperimentConfig cfg = paper_config(batch_jobs(), kind, 2);
    cfg.nodes = 12;
    cfg.hetero = fast_slow_classes();
    cfg.pna.cost_mix = cost_mix;
    ExperimentConfig naive_cfg = cfg;
    naive_cfg.naive_scheduler_path = true;
    const auto fast = run_experiment(cfg);
    const auto naive = run_experiment(naive_cfg);
    EXPECT_TRUE(fast.completed)
        << to_string(kind) << " mix=" << cost_mix;
    expect_identical_results(naive, fast);
  }
}

TEST(Heterogeneity, SerialAndParallelHeteroStreamsIdentical) {
  // Streamed heterogeneous runs obey the same determinism contract as the
  // tenant streams: running next to an unrelated concurrent experiment
  // must not perturb a single record.
  StreamConfig cfg = two_tenant_stream(SchedulerKind::kPna, 13);
  cfg.base.hetero = fast_slow_classes();
  const auto serial = run_stream_experiment(cfg);

  StreamResult threaded, other;
  std::thread worker([&] { threaded = run_stream_experiment(cfg); });
  std::thread noise([&] {
    StreamConfig noisy = two_tenant_stream(SchedulerKind::kUnrelated, 14);
    noisy.base.hetero = fast_slow_classes();
    other = run_stream_experiment(noisy);
  });
  worker.join();
  noise.join();
  expect_identical_results(serial.run, threaded.run);
  expect_identical_tenant_summaries(serial.steady, threaded.steady);
  EXPECT_TRUE(other.run.completed);
}

control::NetworkFaultInjectorConfig chaos_config() {
  control::NetworkFaultInjectorConfig net;
  net.link_mtbf = 80.0;
  net.link_repair_time = 60.0;
  net.switch_mtbf = 300.0;
  net.switch_repair_time = 90.0;
  net.repair_jitter = 0.3;
  net.surge_mtbf = 200.0;
  net.surge_duration = 120.0;
  net.surge_utilization = 0.6;
  return net;
}

TEST(NetworkChaos, DisabledConfigIsByteIdenticalToSeed) {
  // A NetworkFaultInjectorConfig whose families are all disabled must be a
  // provable no-op: the injector arms nothing, consumes no draws from the
  // other streams (its sub-stream is a labeled split), and the run matches
  // a config that never mentions network faults, byte for byte.
  for (const auto kind : {SchedulerKind::kPna, SchedulerKind::kMinCost}) {
    ExperimentConfig plain = paper_config(batch_jobs(), kind, 4);
    plain.nodes = 12;
    ExperimentConfig wired = plain;
    wired.net_faults.link_repair_time = 45.0;   // non-default but inert:
    wired.net_faults.surge_utilization = 0.9;   // every mtbf stays 0
    const auto base = run_experiment(plain);
    const auto chaos = run_experiment(wired);
    EXPECT_TRUE(base.completed);
    expect_identical_results(base, chaos);
  }
}

TEST(NetworkChaos, StallTimeoutIsNoopOnCleanNetwork) {
  // On a fault-free network no transfer ever stalls, so the stall watchdog
  // must be pure bookkeeping: same placements, same records, no retries.
  // (The watchdog timers themselves still fire and find nothing stalled, so
  // events_processed is the one result field allowed to differ.)
  ExperimentConfig plain = paper_config(batch_jobs(), SchedulerKind::kPna, 6);
  plain.nodes = 12;
  ExperimentConfig guarded = plain;
  guarded.engine.stall_timeout = 45.0;
  const auto base = run_experiment(plain);
  const auto watched = run_experiment(guarded);
  EXPECT_TRUE(base.completed);
  expect_identical_records(base, watched);
}

TEST(NetworkChaos, SerialAndParallelChaosRunsIdentical) {
  // The determinism contract survives the full chaos stack: link cuts,
  // switch faults, surges and stall-retry all replay byte-identically when
  // the run shares the process with an unrelated concurrent experiment.
  ExperimentConfig cfg = paper_config(batch_jobs(), SchedulerKind::kPna, 7);
  cfg.nodes = 12;
  cfg.net_faults = chaos_config();
  cfg.engine.stall_timeout = 30.0;
  const auto serial = run_experiment(cfg);
  EXPECT_TRUE(serial.completed);

  ExperimentResult threaded, other;
  std::thread worker([&] { threaded = run_experiment(cfg); });
  std::thread noise([&] {
    ExperimentConfig noisy =
        paper_config(batch_jobs(), SchedulerKind::kMinCost, 8);
    noisy.nodes = 12;
    noisy.net_faults = chaos_config();
    noisy.engine.stall_timeout = 30.0;
    other = run_experiment(noisy);
  });
  worker.join();
  noise.join();
  expect_identical_results(serial, threaded);
  EXPECT_TRUE(other.completed);
}

TEST(NetworkChaos, FastVsNaiveIdenticalUnderChaos) {
  // The incremental free-slot / row-sum structures must track the naive
  // path even while faults reshuffle distances and stall-kills recycle
  // attempts mid-run.
  for (const auto kind :
       {SchedulerKind::kPna, SchedulerKind::kMinCost, SchedulerKind::kFifo}) {
    ExperimentConfig cfg = paper_config(batch_jobs(), kind, 9);
    cfg.nodes = 12;
    cfg.net_faults = chaos_config();
    cfg.engine.stall_timeout = 30.0;
    ExperimentConfig naive_cfg = cfg;
    naive_cfg.naive_scheduler_path = true;
    const auto fast = run_experiment(cfg);
    const auto naive = run_experiment(naive_cfg);
    EXPECT_TRUE(fast.completed) << to_string(kind);
    expect_identical_results(naive, fast);
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<SchedulerKind, std::uint64_t>>&
        info) {
  return std::string(to_string(std::get<0>(info.param))) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, EquivalenceTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kPna,
                                         SchedulerKind::kMinCost,
                                         SchedulerKind::kCoupling),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    param_name);

}  // namespace
}  // namespace mrs::driver
