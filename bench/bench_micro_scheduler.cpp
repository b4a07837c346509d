// Micro-benchmarks (google-benchmark): the per-heartbeat costs of the
// scheduler machinery — Algorithm 1/2 decision latency, cost-model
// evaluation, flow-model rate recomputation and topology routing — at the
// paper's cluster scale (60 nodes, jobs up to ~930 maps / ~200 reduces).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "mrs/core/cost_model.hpp"
#include "mrs/core/pna_scheduler.hpp"
#include "mrs/core/probability.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/trace/decision.hpp"
#include "mrs/trace/recorder.hpp"

namespace {

using namespace mrs;

constexpr double kGb = 1e9 / 8.0;

struct BenchCluster {
  explicit BenchCluster(std::size_t maps, std::size_t reduces)
      : topo(net::make_single_rack(60, units::Gbps(1))),
        store(60),
        placer(&topo, Rng(1)),
        clstr(&topo, {}, Rng(2)),
        network(&sim, &topo),
        distance(topo),
        engine(&sim, &clstr, &store, &network, &distance, {}) {
    mapreduce::JobSpec spec;
    spec.name = "bench";
    spec.reduce_count = reduces;
    for (std::size_t j = 0; j < maps; ++j) {
      const BlockId b = store.add_block(
          128.0 * units::kMiB,
          placer.place(2, dfs::PlacementPolicy::kHdfsDefault));
      spec.map_tasks.push_back({b, 128.0 * units::kMiB});
    }
    job = &engine.submit(std::move(spec), Rng(3));
    // Mark half of the maps running/finished so reduce costs have sources.
    for (std::size_t j = 0; j < maps / 2; ++j) {
      auto& m = job->map_state(j);
      m.node = NodeId(j % 60);
      m.phase = j % 3 == 0 ? mapreduce::MapPhase::kDone
                           : mapreduce::MapPhase::kComputing;
      m.compute_start = 0.0;
      m.compute_duration = 20.0;
    }
  }

  sim::Simulation sim;
  net::Topology topo;
  dfs::BlockStore store;
  dfs::BlockPlacer placer;
  cluster::Cluster clstr;
  sim::NetworkService network;
  net::HopDistanceProvider distance;
  mapreduce::Engine engine;
  mapreduce::JobRun* job = nullptr;
};

void BM_MapCostEq1(benchmark::State& state) {
  BenchCluster bc(930, 197);
  std::size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bc.engine.map_cost(*bc.job, (930 / 2) + (j++ % 400), NodeId(7)));
  }
}
BENCHMARK(BM_MapCostEq1);

void BM_IntermediateSnapshot(benchmark::State& state) {
  BenchCluster bc(static_cast<std::size_t>(state.range(0)), 197);
  for (auto _ : state) {
    core::IntermediateSnapshot snap(*bc.job, 10.0,
                                    core::EstimatorMode::kProjected, 60);
    benchmark::DoNotOptimize(snap.total_for(0));
  }
}
BENCHMARK(BM_IntermediateSnapshot)->Arg(100)->Arg(500)->Arg(930);

void BM_ReduceCostEvaluator(benchmark::State& state) {
  BenchCluster bc(930, static_cast<std::size_t>(state.range(0)));
  const auto candidates = bc.clstr.nodes_with_free_reduce_slots();
  for (auto _ : state) {
    core::ReduceCostEvaluator eval(bc.engine, *bc.job,
                                   core::EstimatorMode::kProjected,
                                   candidates);
    double sum = 0.0;
    for (std::size_t f = 0; f < bc.job->reduce_count(); ++f) {
      sum += eval.average_cost(f);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ReduceCostEvaluator)->Arg(50)->Arg(197);

void BM_ProbabilityModel(benchmark::State& state) {
  double c = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::assignment_probability(
        c, 2.0, core::ProbabilityModel::kExponential));
    c += 0.001;
    if (c > 10.0) c = 1.0;
  }
}
BENCHMARK(BM_ProbabilityModel);

void BM_PnaHeartbeat(benchmark::State& state) {
  BenchCluster bc(930, 197);
  core::PnaScheduler pna({}, Rng(4));
  bc.engine.set_scheduler(&pna);
  bc.engine.start();
  bc.sim.run(0.0);  // activate the job (submit_time 0)
  std::size_t node = 0;
  for (auto _ : state) {
    // One full budgeted heartbeat decision (map + reduce side) on a busy
    // job, through the engine so the per-heartbeat budgets are armed.
    bc.engine.heartbeat_now(NodeId(node));
    node = (node + 1) % 60;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PnaHeartbeat)->Iterations(200);

// The incremental-vs-naive scoring case the perf work targets: a 60-node
// cluster saturated with running work (3 of 4 map slots busy everywhere,
// every reduce slot busy), two 930-map jobs whose probe-local tasks are
// already placed, and p_min above 1 - 1/e so every remote offer is scored
// and skipped. Each heartbeat is then one full Algorithm 1 scan (~800
// candidates x 60 free nodes) with zero state drift, isolating C_ave:
// Arg(0) = naive rescans, Arg(1) = incremental row sums + slot index.
// items_per_second == heartbeats/sec (the number docs/perf.md records).
struct SaturatedCluster {
  /// `hetero` swaps in a fast/slow split cluster (per-node slot counts and
  /// speeds) and blends the compute term into the PNA cost (cost_mix 0.5)
  /// — the incremental row sums stay exact, so the same gate applies.
  /// `traced` installs the causal tracer (span recorder + decision log)
  /// before start, so the heartbeat path pays the full record cost: the
  /// worst case for tracing since every skipped offer emits a record.
  explicit SaturatedCluster(bool incremental, bool hetero = false,
                            bool traced = false)
      : topo(net::make_single_rack(60, units::Gbps(1))),
        store(60),
        placer(&topo, Rng(1)),
        clstr(hetero ? cluster::Cluster(&topo, hetero_node_configs(),
                                        {"fast", "slow"}, Rng(2))
                     : cluster::Cluster(&topo, {}, Rng(2))),
        network(&sim, &topo),
        distance(topo),
        engine(&sim, &clstr, &store, &network, &distance, {}) {
    core::PnaConfig cfg;
    cfg.p_min = 0.9;  // > 1 - 1/e: every uniform remote offer is skipped
    cfg.incremental_scoring = incremental;
    if (hetero) cfg.cost_mix = 0.5;
    pna = std::make_unique<core::PnaScheduler>(cfg, Rng(4));
    clstr.set_naive_free_scan(!incremental);

    for (int jj = 0; jj < 2; ++jj) {
      mapreduce::JobSpec spec;
      spec.name = "sat" + std::to_string(jj);
      spec.reduce_count = 197;
      for (std::size_t j = 0; j < 930; ++j) {
        const BlockId b = store.add_block(
            128.0 * units::kMiB,
            placer.place(2, dfs::PlacementPolicy::kHdfsDefault));
        spec.map_tasks.push_back({b, 128.0 * units::kMiB});
      }
      jobs[jj] = &engine.submit(std::move(spec), Rng(30 + jj));
    }
    // Tasks local to a probe node are already running: the local fast
    // path never fires and every probe heartbeat takes the full scan.
    for (auto* job : jobs) {
      for (std::size_t j = 0; j < job->map_count(); ++j) {
        for (NodeId r : store.replicas(job->spec().map_tasks[j].block)) {
          if (r.value() < kProbes) {
            auto& m = job->map_state(j);
            m.node = r;
            m.phase = mapreduce::MapPhase::kComputing;
            m.compute_start = 0.0;
            m.compute_duration = 1e6;
            break;
          }
        }
      }
    }
    // Saturate: all but one map slot busy on every node (all 60 stay in
    // N_m), every reduce slot busy (the reduce walk is skipped entirely).
    for (std::size_t n = 0; n < 60; ++n) {
      const auto& node = clstr.node(NodeId(n));
      for (std::size_t s = 0; s + 1 < node.map_slots; ++s) {
        clstr.occupy_map_slot(NodeId(n));
      }
      for (std::size_t s = 0; s < node.reduce_slots; ++s) {
        clstr.occupy_reduce_slot(NodeId(n));
      }
    }
    engine.set_scheduler(pna.get());
    if (traced) {
      recorder = std::make_unique<trace::TraceRecorder>();
      decisions = std::make_unique<trace::DecisionLog>();
      engine.add_observer(recorder.get());
      pna->set_decision_log(decisions.get());
    }
    engine.start();
    sim.run(0.0);  // activate both jobs
  }

  static constexpr std::size_t kProbes = 4;

  /// Alternating fast (6/3 slots, 2x speed) / slow (2/1 slots, 0.5x)
  /// nodes — same total slot count as the homogeneous 4/2 cluster.
  static std::vector<cluster::NodeConfig> hetero_node_configs() {
    std::vector<cluster::NodeConfig> configs(60);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const bool fast = i % 2 == 0;
      configs[i].map_slots = fast ? 6 : 2;
      configs[i].reduce_slots = fast ? 3 : 1;
      configs[i].base_speed = fast ? 2.0 : 0.5;
      configs[i].class_index = fast ? 0 : 1;
    }
    return configs;
  }

  sim::Simulation sim;
  net::Topology topo;
  dfs::BlockStore store;
  dfs::BlockPlacer placer;
  cluster::Cluster clstr;
  sim::NetworkService network;
  net::HopDistanceProvider distance;
  mapreduce::Engine engine;
  std::unique_ptr<core::PnaScheduler> pna;
  std::unique_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<trace::DecisionLog> decisions;
  mapreduce::JobRun* jobs[2] = {nullptr, nullptr};
};

void BM_PnaHeartbeatSaturated(benchmark::State& state) {
  SaturatedCluster sc(state.range(0) == 1);
  std::size_t probe = 0;
  for (auto _ : state) {
    sc.engine.heartbeat_now(NodeId(probe));
    probe = (probe + 1) % SaturatedCluster::kProbes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 1 ? "incremental" : "naive");
}
BENCHMARK(BM_PnaHeartbeatSaturated)->Arg(0)->Arg(1);

// Same saturated scan on the fast/slow split cluster with the blended
// network+compute cost (cost_mix 0.5): the per-candidate work gains the
// speed-aware blend, and the free-set walks see per-node slot counts.
// The incremental/naive gate and the per-machine baseline both extend to
// this case (tools/check_perf.py).
void BM_PnaHeartbeatHetero(benchmark::State& state) {
  SaturatedCluster sc(state.range(0) == 1, /*hetero=*/true);
  std::size_t probe = 0;
  for (auto _ : state) {
    sc.engine.heartbeat_now(NodeId(probe));
    probe = (probe + 1) % SaturatedCluster::kProbes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 1 ? "incremental" : "naive");
}
BENCHMARK(BM_PnaHeartbeatHetero)->Arg(0)->Arg(1);

// Tracing overhead on the same saturated scan (incremental scoring both
// ways): Arg(0) = tracer detached (the default-run configuration the
// perf baseline gates), Arg(1) = span recorder + decision log attached —
// every scored-and-skipped offer appends a PlacementDecisionRecord, the
// worst case for the per-offer record path.
void BM_PnaHeartbeatTraced(benchmark::State& state) {
  SaturatedCluster sc(/*incremental=*/true, /*hetero=*/false,
                      /*traced=*/state.range(0) == 1);
  std::size_t probe = 0;
  for (auto _ : state) {
    sc.engine.heartbeat_now(NodeId(probe));
    probe = (probe + 1) % SaturatedCluster::kProbes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 1 ? "trace-on" : "trace-off");
}
BENCHMARK(BM_PnaHeartbeatTraced)->Arg(0)->Arg(1);

void BM_FlowRecompute(benchmark::State& state) {
  const auto topo = net::make_single_rack(60, units::Gbps(1));
  net::FlowModel fm(&topo);
  Rng rng(5);
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < flows; ++i) {
    const NodeId a(rng.index(60));
    NodeId b(rng.index(60));
    if (b == a) b = NodeId((a.value() + 1) % 60);
    fm.start(a, b, 1000.0 * kGb, 0.0);
  }
  for (auto _ : state) {
    fm.recompute_rates();
  }
}
BENCHMARK(BM_FlowRecompute)->Arg(32)->Arg(128)->Arg(512);

// Flow-model event throughput at datacenter scale: a k=16 fat-tree
// (1024 hosts, 6144 directed links) holding ~384 concurrent random flows
// at steady state. Each event is the simulator's hot sequence — advance to
// the next completion, collect it, start a replacement — so every
// iteration pays two rate solves. Arg(0) runs the retained naive
// whole-network progressive filling (every event rescans all directed
// links per freeze round); Arg(1) runs the incremental component-local
// solver. items_per_second == flow events/sec; tools/check_perf.py gates
// the pair at >= 10x and the incremental floor against the baseline.
const net::Topology& fat_tree_1k() {
  static const net::Topology topo = net::make_fat_tree({16, units::Gbps(1)});
  return topo;
}

void BM_FlowEventsFatTree1k(benchmark::State& state) {
  const net::Topology& topo = fat_tree_1k();
  net::FlowModel fm(&topo);
  Rng rng(9);
  Seconds now = 0.0;
  auto start_one = [&] {
    const NodeId a(rng.index(topo.host_count()));
    NodeId b(rng.index(topo.host_count()));
    if (b == a) b = NodeId((a.value() + 1) % topo.host_count());
    fm.start(a, b, rng.uniform(0.05, 0.5) * kGb, now);
  };
  // Build the steady-state population with the incremental solver (naive
  // setup would be O(flows^2 * links)), then flip the mode under test.
  for (std::size_t i = 0; i < 384; ++i) start_one();
  fm.set_naive_flow_solver(state.range(0) == 0);
  for (auto _ : state) {
    const auto next = fm.next_completion();
    now = next->first + 1e-9;
    fm.advance_to(now);
    benchmark::DoNotOptimize(fm.collect_completed().size());
    start_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 1 ? "incremental" : "naive");
}
BENCHMARK(BM_FlowEventsFatTree1k)->Arg(0)->Arg(1);

void BM_TopologyRouting(benchmark::State& state) {
  net::TreeTopologyConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 15;
  for (auto _ : state) {
    const auto topo = net::make_multi_rack_tree(cfg);
    benchmark::DoNotOptimize(topo.hops(NodeId(0), NodeId(59)));
  }
}
BENCHMARK(BM_TopologyRouting);

}  // namespace

BENCHMARK_MAIN();
