// Tests for stragglers, speculative execution and node-failure handling.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "mrs/mapreduce/failure_injector.hpp"
#include "mrs/mapreduce/observers.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/sched/fifo.hpp"
#include "mrs/telemetry/registry.hpp"
#include "test_harness.hpp"

namespace mrs::mapreduce {
namespace {

using mrs::testing::MiniCluster;

// MiniCluster with a link-condition model wired into the network service,
// so tests can cut links out-of-band and watch the stall machinery react.
struct ChaosCluster {
  explicit ChaosCluster(std::size_t nodes, mapreduce::EngineConfig engine_cfg)
      : topo(net::make_single_rack(nodes, units::Gbps(1))),
        cond(&topo, {}, Rng(21)),  // clean background; faults added by hand
        store(nodes),
        placer(&topo, Rng(7)),
        clstr(&topo, {}, Rng(8)),
        network(&sim, &topo, &cond),
        distance(topo),
        engine(&sim, &clstr, &store, &network, &distance, engine_cfg) {}

  JobRun& submit_job(std::size_t maps, std::size_t reduces, Bytes block,
                     std::size_t replication = 2) {
    JobSpec spec;
    spec.name = "job" + std::to_string(counter);
    spec.reduce_count = reduces;
    spec.map_selectivity = 1.0;
    spec.selectivity_jitter = 0.0;
    spec.map_rate = 32.0 * units::kMiB;
    spec.reduce_rate = 32.0 * units::kMiB;
    spec.task_startup = 0.5;
    for (std::size_t j = 0; j < maps; ++j) {
      const BlockId b = store.add_block(
          block,
          placer.place(replication, dfs::PlacementPolicy::kHdfsDefault));
      spec.map_tasks.push_back({b, block});
    }
    return engine.submit(std::move(spec), Rng(100 + counter++));
  }

  void set_link_fault(LinkId link, bool faulted) {
    cond.set_link_fault(link, faulted);
    network.on_condition_changed();
  }

  sim::Simulation sim;
  net::Topology topo;
  net::LinkConditionModel cond;
  dfs::BlockStore store;
  dfs::BlockPlacer placer;
  cluster::Cluster clstr;
  sim::NetworkService network;
  net::HopDistanceProvider distance;
  mapreduce::Engine engine;
  int counter = 0;
};

TEST(StallRetry, CutTransferTimesOutRetriesAndCompletes) {
  // Cut every link for a window much longer than the stall timeout: any
  // in-flight fetch or shuffle parks at rate zero, the watchdog kills the
  // attempt after `stall_timeout`, and the capped-backoff retry machinery
  // re-places it. Once the links repair, every job must still finish.
  // Single-replica blocks leave some nodes without local maps, so map
  // fetches stall as well as reduce shuffles.
  EngineConfig cfg;
  cfg.stall_timeout = 3.0;
  cfg.stall_backoff_base = 1.0;
  cfg.stall_backoff_cap = 4.0;
  ChaosCluster h(4, cfg);
  h.submit_job(16, 4, 256.0 * units::kMiB, /*replication=*/1);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  telemetry::Registry registry;
  h.engine.set_telemetry(&registry);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  h.sim.schedule_at(1.0, [&] {
    for (std::size_t l = 0; l < h.topo.link_count(); ++l) {
      h.set_link_fault(LinkId(l), true);
    }
  });
  h.sim.schedule_at(40.0, [&] {
    for (std::size_t l = 0; l < h.topo.link_count(); ++l) {
      h.set_link_fault(LinkId(l), false);
    }
  });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(h.clstr.busy_map_slots(), 0u);
  EXPECT_EQ(h.clstr.busy_reduce_slots(), 0u);
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter("engine.transfer.stall_timeouts"), 0u);
  EXPECT_GT(snap.counter("engine.transfer.retries"), 0u);
  // Every stall kill is traced, and every kill eventually produced a retry
  // (nothing hit the attempt cap: max_task_attempts defaults to 0).
  EXPECT_EQ(trace.count("stall-timeout"),
            snap.counter("engine.transfer.stall_timeouts"));
  EXPECT_EQ(snap.counter("engine.transfer.retries"),
            snap.counter("engine.transfer.stall_timeouts"));
  // The one watchdog watches both task kinds: map fetches and reduce
  // shuffles each time out and retry. Index [is_map].
  std::size_t timeouts[2] = {0, 0};
  std::size_t retries[2] = {0, 0};
  for (const EngineEvent& e : trace.events()) {
    if (e.kind == EventKind::kStallTimeout) ++timeouts[e.is_map];
    if (e.kind == EventKind::kStallRetry) ++retries[e.is_map];
  }
  for (const bool is_map : {false, true}) {
    EXPECT_GT(timeouts[is_map], 0u) << (is_map ? "map" : "reduce");
    EXPECT_GT(retries[is_map], 0u) << (is_map ? "map" : "reduce");
  }
}

TEST(StallRetry, RepeatedStallKillsFeedBlacklistProbation) {
  // Stall kills count as node failures: two kills inside the window list
  // the node, listing starts a probation that keeps it unschedulable, and
  // the probation must end (and the node return to service) once the
  // network heals — even when later stall kills restart the window.
  EngineConfig cfg;
  cfg.stall_timeout = 3.0;
  cfg.stall_backoff_base = 1.0;
  cfg.stall_backoff_cap = 4.0;
  cfg.blacklist.enabled = true;
  cfg.blacklist.failure_threshold = 2;
  cfg.blacklist.window = 600.0;
  cfg.blacklist.probation = 10.0;
  ChaosCluster h(4, cfg);
  h.submit_job(16, 4, 256.0 * units::kMiB);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  h.sim.schedule_at(1.0, [&] {
    for (std::size_t l = 0; l < h.topo.link_count(); ++l) {
      h.set_link_fault(LinkId(l), true);
    }
  });
  h.sim.schedule_at(40.0, [&] {
    for (std::size_t l = 0; l < h.topo.link_count(); ++l) {
      h.set_link_fault(LinkId(l), false);
    }
  });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_GE(trace.count("stall-timeout"), 2u);
  EXPECT_GE(trace.count("node-blacklisted"), 1u);
  // Every listed node served out its probation and rejoined: the run ends
  // with the whole cluster schedulable again.
  EXPECT_EQ(trace.count("node-unblacklisted"),
            trace.count("node-blacklisted"));
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(h.clstr.node(NodeId(n)).schedulable) << "node " << n;
  }
}

TEST(FailNode, RunningMapsRescheduled) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(8, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  // Let some maps start, then kill node 0 mid-run.
  h.sim.schedule_at(2.0, [&] { h.engine.fail_node(NodeId(0)); });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(trace.count("node-failed"), 1u);
  // Every task completed despite the failure; no slot leaked.
  EXPECT_EQ(h.clstr.busy_map_slots(), 0u);
  EXPECT_EQ(h.clstr.busy_reduce_slots(), 0u);
  // Nothing finished on the dead node after the failure.
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const auto& m = job.map_state(j);
    if (m.node == NodeId(0)) {
      EXPECT_LE(m.finished_at, 2.0 + 1e-9);
    }
  }
}

TEST(FailNode, CompletedOutputsReRun) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(6, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  // Run until all maps finished, then fail a node that hosts outputs while
  // reduces are still shuffling or unassigned.
  bool failed = false;
  std::function<void()> watch = [&] {
    if (!failed && job.maps_finished() == job.map_count() &&
        job.reduces_finished() < job.reduce_count()) {
      // Fail the node where map 0 ran (its output may still be needed).
      const NodeId victim = job.map_state(0).node;
      if (h.clstr.node(victim).busy_map_slots == 0) {
        // Only fail once all its map slots are free (outputs-only case).
        h.engine.fail_node(victim);
        failed = true;
        return;
      }
    }
    if (!h.engine.all_jobs_complete()) h.sim.schedule_in(0.5, watch);
  };
  h.sim.schedule_at(0.5, watch);
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  // Byte conservation still holds after any re-runs.
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    double expected = 0.0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      expected += job.final_partition(j, f);
    }
    EXPECT_NEAR(job.reduce_state(f).bytes_fetched, expected,
                expected * 1e-9 + 1.0);
  }
}

TEST(FailNode, ReducesRescheduledAndRefetch) {
  MiniCluster h(4);
  JobRun& job = h.submit_job(6, 3);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  // Fail whichever node runs reduce 0, once it is shuffling.
  std::function<void()> watch = [&] {
    const auto& r = job.reduce_state(0);
    if (r.phase == ReducePhase::kShuffling ||
        r.phase == ReducePhase::kComputing) {
      h.engine.fail_node(r.node);
      return;
    }
    if (!h.engine.all_jobs_complete()) h.sim.schedule_in(0.5, watch);
  };
  h.sim.schedule_at(0.5, watch);
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_GE(job.reduce_state(0).attempts, 2u);
  double expected = 0.0;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    expected += job.final_partition(j, 0);
  }
  EXPECT_NEAR(job.reduce_state(0).bytes_fetched, expected,
              expected * 1e-9 + 1.0);
}

TEST(FailNode, DeadNodeGetsNoWork) {
  MiniCluster h(3);
  JobRun& job = h.submit_job(12, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.schedule_at(1.0, [&] { h.engine.fail_node(NodeId(1)); });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const auto& m = job.map_state(j);
    if (m.node == NodeId(1)) {
      EXPECT_LE(m.assigned_at, 1.0 + 1e-9);  // assigned before the failure
    }
  }
}

TEST(FailNode, RecoveryRestoresSlots) {
  MiniCluster h(3);
  JobRun& job = h.submit_job(20, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  h.engine.start();
  h.sim.schedule_at(1.0, [&] { h.engine.fail_node(NodeId(2)); });
  h.sim.schedule_at(20.0, [&] { h.engine.recover_node(NodeId(2)); });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  // Work was assigned to node 2 again after recovery.
  bool post_recovery_use = false;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    const auto& m = job.map_state(j);
    if (m.node == NodeId(2) && m.assigned_at > 20.0) {
      post_recovery_use = true;
    }
  }
  EXPECT_TRUE(post_recovery_use);
}

TEST(FailNode, DoubleFailureIsNoop) {
  MiniCluster h(3);
  h.submit_job(6, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  h.sim.schedule_at(1.0, [&] {
    h.engine.fail_node(NodeId(0));
    h.engine.fail_node(NodeId(0));  // second call must be harmless
  });
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(trace.count("node-failed"), 1u);
}

TEST(Stragglers, SlowdownAppearsInDurations) {
  mapreduce::EngineConfig cfg;
  cfg.fault.straggler_probability = 0.5;
  cfg.fault.straggler_slowdown = 8.0;
  MiniCluster h(4, {}, cfg);
  JobRun& job = h.submit_job(30, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  std::size_t stragglers = 0;
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    if (job.map_state(j).straggler) ++stragglers;
  }
  EXPECT_GT(stragglers, 5u);
  EXPECT_LT(stragglers, 25u);
}

TEST(Speculation, BackupCutsStragglersShort) {
  auto run_with = [](bool speculate) {
    mapreduce::EngineConfig cfg;
    cfg.fault.straggler_probability = 0.15;
    cfg.fault.straggler_slowdown = 10.0;
    cfg.fault.speculative_execution = speculate;
    cfg.fault.speculation_slack = 1.5;
    MiniCluster h(6, {}, cfg);
    h.submit_job(40, 2);
    MemoryTraceSink trace;
    h.engine.add_observer(&trace);
    sched::FifoScheduler fifo;
    h.run(fifo);
    EXPECT_TRUE(h.engine.all_jobs_complete());
    return std::pair<Seconds, std::size_t>(
        h.engine.job_records().front().completion_time(),
        trace.count("speculative-launch"));
  };
  const auto [jct_off, spec_off] = run_with(false);
  const auto [jct_on, spec_on] = run_with(true);
  EXPECT_EQ(spec_off, 0u);
  EXPECT_GT(spec_on, 0u);
  EXPECT_LT(jct_on, jct_off);  // speculation shortens the straggler tail
}

TEST(Speculation, AttemptsRecorded) {
  mapreduce::EngineConfig cfg;
  cfg.fault.straggler_probability = 0.3;
  cfg.fault.straggler_slowdown = 10.0;
  cfg.fault.speculative_execution = true;
  cfg.fault.speculation_slack = 1.5;
  MiniCluster h(6, {}, cfg);
  h.submit_job(30, 2);
  sched::FifoScheduler fifo;
  h.run(fifo);
  bool multi_attempt = false;
  for (const auto& t : h.engine.task_records()) {
    if (t.attempts > 1) multi_attempt = true;
  }
  EXPECT_TRUE(multi_attempt);
}

TEST(Speculation, CapZeroDisablesBackups) {
  mapreduce::EngineConfig cfg;
  cfg.fault.straggler_probability = 0.3;
  cfg.fault.straggler_slowdown = 10.0;
  cfg.fault.speculative_execution = true;
  cfg.fault.speculation_slack = 1.5;
  cfg.fault.speculation_cap = 0.0;  // speculation on, but no backup budget
  MiniCluster h(6, {}, cfg);
  h.submit_job(30, 2);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  sched::FifoScheduler fifo;
  h.run(fifo);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_EQ(trace.count("speculative-launch"), 0u);
}

TEST(Speculation, ActiveBackupsRespectCap) {
  // cap * map_count = 0.025 * 40 = 1: at most one backup may be in flight
  // per job at any instant, however many stragglers are eligible.
  mapreduce::EngineConfig cfg;
  cfg.fault.straggler_probability = 0.4;
  cfg.fault.straggler_slowdown = 10.0;
  cfg.fault.speculative_execution = true;
  cfg.fault.speculation_slack = 1.2;
  cfg.fault.speculation_cap = 0.025;
  MiniCluster h(6, {}, cfg);
  JobRun& job = h.submit_job(40, 2);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  h.engine.start();
  std::size_t max_active = 0;
  std::function<void()> watch = [&] {
    std::size_t active = 0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      if (job.map_state(j).has_backup()) ++active;
    }
    max_active = std::max(max_active, active);
    if (!h.engine.all_jobs_complete()) h.sim.schedule_in(0.1, watch);
  };
  h.sim.schedule_at(0.1, watch);
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_GT(trace.count("speculative-launch"), 0u);  // the cap was exercised
  EXPECT_LE(max_active, 1u);
}

TEST(Speculation, SlotIntegralCountsEveryAttempt) {
  // The busy map-slot integral equals the summed slot time of every map
  // attempt, backups included: an attempt holds its slot from its
  // assignment to its kill, or to its task's finish (the moment the race's
  // losing copy is released too).
  mapreduce::EngineConfig cfg;
  cfg.fault.straggler_probability = 0.3;
  cfg.fault.straggler_slowdown = 10.0;
  cfg.fault.speculative_execution = true;
  cfg.fault.speculation_slack = 1.5;
  MiniCluster h(6, {}, cfg);
  h.submit_job(30, 2);
  MemoryTraceSink trace;
  h.engine.add_observer(&trace);
  sched::FifoScheduler fifo;
  h.run(fifo);
  ASSERT_TRUE(h.engine.all_jobs_complete());
  ASSERT_GT(trace.count("speculative-launch"), 0u);

  // Assignment times of the running attempts, by (job, task, backup).
  std::map<std::tuple<std::size_t, std::size_t, bool>, Seconds> running;
  double slot_seconds = 0.0;
  for (const EngineEvent& e : trace.events()) {
    if (!e.is_map) continue;
    const auto key = std::make_tuple(e.job.value(), e.task, e.backup);
    if (e.kind == EventKind::kTaskAssigned) {
      running[key] = e.time;
    } else if (e.kind == EventKind::kTaskKilled) {
      slot_seconds += e.time - running.at(key);
      running.erase(key);
    } else if (e.kind == EventKind::kTaskFinished) {
      for (const bool backup : {false, true}) {
        const auto it =
            running.find(std::make_tuple(e.job.value(), e.task, backup));
        if (it == running.end()) continue;
        slot_seconds += e.time - it->second;
        running.erase(it);
      }
    }
  }
  EXPECT_TRUE(running.empty());
  EXPECT_NEAR(h.engine.utilization().map_slot_seconds_busy, slot_seconds,
              1e-9 * slot_seconds);
}

TEST(FailureInjector, RandomFailuresStillComplete) {
  MiniCluster h(6);
  JobRun& job = h.submit_job(30, 6);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  FailureInjectorConfig fcfg;
  fcfg.cluster_mtbf = 15.0;  // aggressive: a failure every ~15 s
  fcfg.repair_time = 30.0;
  FailureInjector injector(&h.sim, &h.engine, &h.clstr, fcfg, Rng(9));
  h.engine.start();
  injector.start();
  h.sim.run(1e6);
  EXPECT_TRUE(h.engine.all_jobs_complete());
  EXPECT_GT(injector.failures_fired(), 0u);
  // Conservation still holds.
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    double expected = 0.0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      expected += job.final_partition(j, f);
    }
    EXPECT_NEAR(job.reduce_state(f).bytes_fetched, expected,
                expected * 1e-9 + 1.0);
  }
}

TEST(FailureInjector, DisabledByDefault) {
  MiniCluster h(3);
  h.submit_job(4, 1);
  sched::FifoScheduler fifo;
  h.engine.set_scheduler(&fifo);
  FailureInjector injector(&h.sim, &h.engine, &h.clstr, {}, Rng(1));
  h.engine.start();
  injector.start();
  h.sim.run(1e6);
  EXPECT_EQ(injector.failures_fired(), 0u);
  EXPECT_TRUE(h.engine.all_jobs_complete());
}

TEST(FailureInjector, ArmHorizonKeepsFiringThroughQuietGaps) {
  // Regression: the injector used to disarm permanently the moment every
  // job in the system had resolved — with an open-loop stream that means
  // the first quiet gap, leaving the rest of the run failure-free. The
  // arm_horizon keeps it armed over the whole arrival window.
  auto fired_with_horizon = [](Seconds horizon) {
    MiniCluster h(6);
    h.submit_job(4, 1);  // finishes in a few seconds
    sched::FifoScheduler fifo;
    h.engine.set_scheduler(&fifo);
    FailureInjectorConfig fcfg;
    fcfg.cluster_mtbf = 20.0;
    fcfg.repair_time = 10.0;
    fcfg.arm_horizon = horizon;
    FailureInjector injector(&h.sim, &h.engine, &h.clstr, fcfg, Rng(9));
    h.engine.start();
    injector.start();
    h.sim.run(1e6);
    EXPECT_TRUE(h.engine.all_jobs_complete());
    return injector.failures_fired();
  };
  const std::size_t batch = fired_with_horizon(0.0);
  const std::size_t streaming = fired_with_horizon(300.0);
  // Armed across the ~300 s quiet tail, the injector keeps firing at
  // mtbf 20 long after the only job completed.
  EXPECT_GT(streaming, batch);
  EXPECT_GE(streaming, 5u);
}

TEST(FailureInjector, RepairJitterIsDeterministicPerSeed) {
  auto run_once = [](double jitter) {
    MiniCluster h(5);
    h.submit_job(60, 6);
    sched::FifoScheduler fifo;
    h.engine.set_scheduler(&fifo);
    FailureInjectorConfig fcfg;
    // Aggressive failures with quick repairs: recovered nodes rejoin while
    // plenty of work remains, so the jittered repair times shift later
    // assignments (and the extra jitter draw shifts later failure times).
    fcfg.cluster_mtbf = 8.0;
    fcfg.repair_time = 5.0;
    fcfg.repair_jitter = jitter;
    FailureInjector injector(&h.sim, &h.engine, &h.clstr, fcfg, Rng(4));
    h.engine.start();
    injector.start();
    h.sim.run(1e6);
    EXPECT_TRUE(h.engine.all_jobs_complete());
    std::vector<double> t;
    for (const auto& r : h.engine.task_records()) t.push_back(r.finished_at);
    return t;
  };
  // Same seed + same jitter -> byte-identical schedule.
  EXPECT_EQ(run_once(0.5), run_once(0.5));
  // Jitter draws perturb the repair times, so the schedule moves.
  EXPECT_NE(run_once(0.5), run_once(0.0));
}

TEST(FailureInjector, DeterministicWithFailures) {
  auto run_once = [] {
    MiniCluster h(5);
    h.submit_job(20, 4);
    sched::FifoScheduler fifo;
    h.engine.set_scheduler(&fifo);
    FailureInjectorConfig fcfg;
    fcfg.cluster_mtbf = 20.0;
    FailureInjector injector(&h.sim, &h.engine, &h.clstr, fcfg, Rng(4));
    h.engine.start();
    injector.start();
    h.sim.run(1e6);
    std::vector<double> t;
    for (const auto& r : h.engine.task_records()) t.push_back(r.finished_at);
    return t;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mrs::mapreduce
