// Tests for the transmission-cost machinery (Eq. 1-3): the paper's worked
// example (Fig. 2), the intermediate-data snapshot/estimator and the
// aggregated reduce-cost evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "mrs/core/cost_model.hpp"
#include "mrs/dfs/block_store.hpp"
#include "mrs/mapreduce/engine.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "test_harness.hpp"

namespace mrs::core {
namespace {

using mapreduce::Engine;
using mapreduce::EngineConfig;
using mapreduce::JobRun;
using mapreduce::JobSpec;
using mapreduce::MapPhase;
using mrs::testing::ForwardingDistance;

// The distance matrix of the paper's Fig. 2 example: nodes D1..D4 map to
// NodeId 0..3. Known entries: d(D3,D1)=2, d(D3,D2)=10, d(D3,D4)=6,
// d(D2,D1)=4. Unspecified pairs get arbitrary values.
net::DistanceMatrix fig2_matrix() {
  net::DistanceMatrix m(4);
  m.set_symmetric(NodeId(2), NodeId(0), 2.0);
  m.set_symmetric(NodeId(2), NodeId(1), 10.0);
  m.set_symmetric(NodeId(2), NodeId(3), 6.0);
  m.set_symmetric(NodeId(1), NodeId(0), 4.0);
  m.set_symmetric(NodeId(0), NodeId(3), 8.0);
  m.set_symmetric(NodeId(1), NodeId(3), 12.0);
  return m;
}

/// Serves a hand-written matrix as static distances.
class MatrixDistance final : public net::DistanceProvider {
 public:
  explicit MatrixDistance(net::DistanceMatrix m) : m_(std::move(m)) {}
  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds /*now*/) const override {
    return m_.at(a, b);
  }
  [[nodiscard]] bool is_static() const override { return true; }

 private:
  net::DistanceMatrix m_;
};

struct Fig2Harness {
  Fig2Harness()
      : topo(net::make_single_rack(4)),
        store(4),
        clstr(&topo, {}, Rng(1)),
        network(&sim, &topo),
        distance(fig2_matrix()),
        engine(&sim, &clstr, &store, &network, &distance, EngineConfig{}) {}

  sim::Simulation sim;
  net::Topology topo;
  dfs::BlockStore store;
  cluster::Cluster clstr;
  sim::NetworkService network;
  MatrixDistance distance;
  Engine engine;
};

TEST(Fig2Example, MapCostsMatchPaper) {
  // Map costs are hop counts, and the example's quoted map costs are hops
  // on a two-rack tree with D1 and D3 in one rack (nodes 0 and 1) and D2
  // in the other (node 2). The reduce-side tests below keep the Fig. 2
  // matrix, which no hop topology reproduces: it breaks the triangle
  // inequality (d(D3,D2) = 10 > 2 + 4).
  const net::Topology topo =
      net::make_multi_rack_tree({.racks = 2, .hosts_per_rack = 2});
  sim::Simulation sim;
  dfs::BlockStore store(4);
  cluster::Cluster clstr(&topo, {}, Rng(1));
  sim::NetworkService network(&sim, &topo);
  const net::HopDistanceProvider hops(topo);
  Engine engine(&sim, &clstr, &store, &network, &hops, EngineConfig{});
  const NodeId d1(0);
  const NodeId d3(1);
  const NodeId d2(2);
  // M1's 128 MB block is on D1; M2's on D2.
  JobSpec spec;
  spec.name = "fig2";
  spec.reduce_count = 2;
  spec.map_tasks.push_back({store.add_block(128.0, {d1}), 128.0});
  spec.map_tasks.push_back({store.add_block(128.0, {d2}), 128.0});
  JobRun& job = engine.submit(std::move(spec), Rng(2));

  // "the transmission cost for M1 [on D3] is 128 x 2 = 256 and the cost
  // for M2 [on D2] is 128 x 0 = 0"
  EXPECT_DOUBLE_EQ(engine.map_cost(job, 0, d3), 256.0);
  EXPECT_DOUBLE_EQ(engine.map_cost(job, 1, d2), 0.0);
  // And the rest of the example's D1 row: local on D1, d(D2,D1) = 4.
  EXPECT_DOUBLE_EQ(engine.map_cost(job, 0, d1), 0.0);
  EXPECT_DOUBLE_EQ(engine.map_cost(job, 0, d2), 128.0 * 4.0);
}

TEST(Fig2Example, ReduceCostsMatchManualEq2) {
  Fig2Harness h;
  JobSpec spec;
  spec.name = "fig2r";
  spec.reduce_count = 2;
  spec.map_tasks.push_back({h.store.add_block(128.0, {NodeId(0)}), 128.0});
  spec.map_tasks.push_back({h.store.add_block(128.0, {NodeId(1)}), 128.0});
  JobRun& job = h.engine.submit(std::move(spec), Rng(3));

  // Place M1 on D3 (node 2) and M2 on D2 (node 1), both complete — the
  // paper's assignment.
  job.map_state(0).phase = MapPhase::kDone;
  job.map_state(0).node = NodeId(2);
  job.map_state(1).phase = MapPhase::kDone;
  job.map_state(1).node = NodeId(1);

  const std::vector<NodeId> candidates = {NodeId(0), NodeId(2)};
  ReduceCostEvaluator eval(h.engine, job, EstimatorMode::kOracle, candidates);

  const net::DistanceMatrix m = fig2_matrix();
  const auto manual = [&](NodeId i, std::size_t f) {
    // C_r(i,f) = I_0f * d(D3, i) + I_1f * d(D2, i)
    return job.final_partition(0, f) * m.at(NodeId(2), i) +
           job.final_partition(1, f) * m.at(NodeId(1), i);
  };
  EXPECT_NEAR(eval.cost(0, 0), manual(NodeId(0), 0), 1e-9);
  EXPECT_NEAR(eval.cost(0, 1), manual(NodeId(0), 1), 1e-9);
  EXPECT_NEAR(eval.cost(1, 0), manual(NodeId(2), 0), 1e-9);
  EXPECT_NEAR(eval.cost(1, 1), manual(NodeId(2), 1), 1e-9);
  // With the paper's exact I (M1: 10,5; M2: 20,10 MB) the example totals
  // 200; our I is drawn stochastically so we verify the formula and the
  // row-mean identity instead of the constant.
  EXPECT_NEAR(eval.average_cost(0), (eval.cost(0, 0) + eval.cost(1, 0)) / 2,
              1e-9);
}

// ---------------------------------------------------------------------------
// IntermediateSnapshot / estimator behaviour on a synthetic JobRun.
// ---------------------------------------------------------------------------

JobSpec snapshot_spec(double nonlinearity) {
  JobSpec spec;
  spec.name = "snap";
  spec.reduce_count = 3;
  spec.map_selectivity = 1.0;
  spec.selectivity_jitter = 0.0;
  spec.emit_nonlinearity = nonlinearity;
  for (std::size_t j = 0; j < 4; ++j) {
    spec.map_tasks.push_back({BlockId(j), 100.0});
  }
  return spec;
}

void place_and_run(JobRun& job, std::size_t j, NodeId node, double progress) {
  auto& m = job.map_state(j);
  m.node = node;
  if (progress >= 1.0) {
    m.phase = MapPhase::kDone;
  } else if (progress > 0.0) {
    m.phase = MapPhase::kComputing;
    m.compute_start = 0.0;
    m.compute_duration = 1.0 / progress;  // reaches `progress` at t=1
  } else {
    m.phase = MapPhase::kStartup;
  }
}

TEST(IntermediateSnapshot, ProjectedIsExactForLinearEmitters) {
  JobRun job(snapshot_spec(1.0), 4, Rng(5));
  place_and_run(job, 0, NodeId(0), 1.0);   // done
  place_and_run(job, 1, NodeId(1), 0.5);   // half way
  place_and_run(job, 2, NodeId(1), 0.1);   // just started
  place_and_run(job, 3, NodeId(2), 0.0);   // no progress yet

  IntermediateSnapshot snap(job, 1.0, EstimatorMode::kProjected, 4);
  for (std::size_t f = 0; f < 3; ++f) {
    // Maps 0-2 are projected exactly; map 3 contributes nothing.
    const double expected = job.final_partition(0, f) +
                            job.final_partition(1, f) +
                            job.final_partition(2, f);
    const double got = snap.bytes_from(0, f) + snap.bytes_from(1, f) +
                       snap.bytes_from(2, f);
    EXPECT_NEAR(got, expected, 1e-6);
    EXPECT_DOUBLE_EQ(snap.bytes_from(2, f) + snap.bytes_from(3, f),
                     snap.bytes_from(2, f));  // node 3 empty
  }
  EXPECT_EQ(snap.source_nodes(), (std::vector<NodeId>{NodeId(0), NodeId(1)}));
}

TEST(IntermediateSnapshot, CurrentUnderestimatesRunningMaps) {
  JobRun job(snapshot_spec(1.0), 4, Rng(6));
  place_and_run(job, 0, NodeId(0), 0.25);
  place_and_run(job, 1, NodeId(1), 1.0);
  place_and_run(job, 2, NodeId(2), 0.0);
  place_and_run(job, 3, NodeId(3), 0.0);

  IntermediateSnapshot cur(job, 1.0, EstimatorMode::kCurrent, 4);
  IntermediateSnapshot proj(job, 1.0, EstimatorMode::kProjected, 4);
  for (std::size_t f = 0; f < 3; ++f) {
    // Current sees only 25% of map 0's output; projected sees all of it.
    EXPECT_NEAR(cur.bytes_from(0, f), 0.25 * job.final_partition(0, f),
                1e-9);
    EXPECT_NEAR(proj.bytes_from(0, f), job.final_partition(0, f), 1e-9);
    // Completed maps identical under both.
    EXPECT_NEAR(cur.bytes_from(1, f), proj.bytes_from(1, f), 1e-9);
  }
}

TEST(IntermediateSnapshot, ProjectedBiasUnderNonlinearEmission) {
  // With alpha=2 the ramp lags progress, so Eq. 3 underestimates while the
  // map runs: estimate = I * p^(alpha-1).
  JobRun job(snapshot_spec(2.0), 4, Rng(7));
  place_and_run(job, 0, NodeId(0), 0.5);
  place_and_run(job, 1, NodeId(1), 0.0);
  place_and_run(job, 2, NodeId(2), 0.0);
  place_and_run(job, 3, NodeId(3), 0.0);
  IntermediateSnapshot proj(job, 1.0, EstimatorMode::kProjected, 4);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_NEAR(proj.bytes_from(0, f), 0.5 * job.final_partition(0, f),
                1e-9);
  }
}

TEST(IntermediateSnapshot, OracleSeesPlacedUnstartedMaps) {
  JobRun job(snapshot_spec(1.0), 4, Rng(8));
  place_and_run(job, 0, NodeId(0), 0.0);  // placed but idle
  place_and_run(job, 1, NodeId(0), 0.0);
  place_and_run(job, 2, NodeId(1), 0.0);
  place_and_run(job, 3, NodeId(1), 0.0);
  IntermediateSnapshot oracle(job, 0.0, EstimatorMode::kOracle, 4);
  IntermediateSnapshot proj(job, 0.0, EstimatorMode::kProjected, 4);
  EXPECT_GT(oracle.total_for(0), 0.0);
  EXPECT_DOUBLE_EQ(proj.total_for(0), 0.0);  // nothing reported yet
}

TEST(IntermediateSnapshot, UnassignedMapsInvisible) {
  JobRun job(snapshot_spec(1.0), 4, Rng(9));
  // No map placed at all: every mode sees an empty cluster.
  for (auto mode : {EstimatorMode::kProjected, EstimatorMode::kCurrent,
                    EstimatorMode::kOracle}) {
    IntermediateSnapshot snap(job, 0.0, mode, 4);
    EXPECT_TRUE(snap.source_nodes().empty());
    EXPECT_DOUBLE_EQ(snap.total_for(0), 0.0);
  }
}

TEST(IntermediateSnapshot, TotalsSumSources) {
  JobRun job(snapshot_spec(1.0), 4, Rng(10));
  for (std::size_t j = 0; j < 4; ++j) {
    place_and_run(job, j, NodeId(j % 2), 1.0);
  }
  IntermediateSnapshot snap(job, 1.0, EstimatorMode::kProjected, 4);
  for (std::size_t f = 0; f < 3; ++f) {
    double sum = 0.0;
    for (std::size_t p = 0; p < 4; ++p) sum += snap.bytes_from(p, f);
    EXPECT_NEAR(snap.total_for(f), sum, 1e-9);
  }
}

TEST(ReduceCostEvaluator, ZeroCostOnDataNodeInSingleSourceCase) {
  Fig2Harness h;
  JobSpec spec = snapshot_spec(1.0);
  JobRun& job = h.engine.submit(
      [&] {
        JobSpec s = snapshot_spec(1.0);
        for (auto& mt : s.map_tasks) {
          mt.block = h.store.add_block(100.0, {NodeId(0)});
        }
        return s;
      }(),
      Rng(11));
  (void)spec;
  // All maps completed on node 0: a reduce placed there has cost 0.
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    job.map_state(j).phase = MapPhase::kDone;
    job.map_state(j).node = NodeId(0);
  }
  const std::vector<NodeId> candidates = {NodeId(0), NodeId(1), NodeId(2)};
  ReduceCostEvaluator eval(h.engine, job, EstimatorMode::kOracle, candidates);
  for (std::size_t f = 0; f < job.reduce_count(); ++f) {
    EXPECT_DOUBLE_EQ(eval.cost(0, f), 0.0);
    EXPECT_GT(eval.cost(1, f), 0.0);
    EXPECT_GT(eval.average_cost(f), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Bit identity of the per-decision shortcuts: a snapshot over a partition
// list, and hop column sums from tallies instead of the default loop.
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 40 maps over 10 nodes in every phase and at assorted progress, 12
/// reduces.
JobRun mixed_job(double nonlinearity, std::uint64_t seed) {
  JobSpec spec;
  spec.name = "mixed";
  spec.reduce_count = 12;
  spec.emit_nonlinearity = nonlinearity;
  spec.partition_skew = 0.8;
  spec.selectivity_jitter = 0.3;
  for (std::size_t j = 0; j < 40; ++j) {
    spec.map_tasks.push_back({BlockId(j), 64.0 + 3.0 * double(j)});
  }
  JobRun job(std::move(spec), 10, Rng(seed));
  Rng draw(seed + 100);
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    auto& m = job.map_state(j);
    m.phase = static_cast<MapPhase>(draw.index(6));
    m.node = NodeId(draw.index(10));
    m.compute_start = draw.uniform(0.0, 4.0);
    m.compute_duration = draw.uniform(0.5, 8.0);
  }
  return job;
}

/// Every other reduce, back to front: columns out of index order.
std::vector<std::size_t> every_other_reduce(const JobRun& job) {
  std::vector<std::size_t> listed;
  for (std::size_t f = 1; f < job.reduce_count(); f += 2) listed.push_back(f);
  std::reverse(listed.begin(), listed.end());
  return listed;
}

TEST(IntermediateSnapshot, PartitionListMatchesFullSnapshotBitwise) {
  for (const double alpha : {1.0, 1.7}) {
    for (const auto mode : {EstimatorMode::kProjected,
                            EstimatorMode::kCurrent,
                            EstimatorMode::kOracle}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " alpha " +
                   std::to_string(alpha));
      const JobRun job = mixed_job(alpha, 21);
      const IntermediateSnapshot full(job, 5.0, mode, 10);
      const auto listed = every_other_reduce(job);
      const IntermediateSnapshot part(job, 5.0, mode, 10, listed);
      ASSERT_FALSE(full.source_nodes().empty());
      EXPECT_EQ(part.source_nodes(), full.source_nodes());
      for (const std::size_t f : listed) {
        EXPECT_EQ(bits(part.total_for(f)), bits(full.total_for(f)));
        for (std::size_t p = 0; p < 10; ++p) {
          EXPECT_EQ(bits(part.bytes_from(p, f)), bits(full.bytes_from(p, f)))
              << "node " << p << " reduce " << f;
        }
      }
    }
  }
}

TEST(IntermediateSnapshot, RebuildReusesBuffersWithoutLeftovers) {
  // One snapshot refilled for another job, time and list equals a fresh
  // one: nothing of the previous build's sources or columns survives.
  IntermediateSnapshot reused;
  const JobRun first = mixed_job(1.0, 31);
  const JobRun second = mixed_job(1.3, 32);
  reused.rebuild(first, 5.0, EstimatorMode::kProjected, 10,
                 every_other_reduce(first));
  const std::vector<std::size_t> listed = {0, 3, 4};
  reused.rebuild(second, 6.0, EstimatorMode::kCurrent, 10, listed);
  const IntermediateSnapshot fresh(second, 6.0, EstimatorMode::kCurrent, 10,
                                   listed);
  EXPECT_EQ(reused.source_nodes(), fresh.source_nodes());
  for (const std::size_t f : listed) {
    EXPECT_EQ(bits(reused.total_for(f)), bits(fresh.total_for(f)));
    for (std::size_t p = 0; p < 10; ++p) {
      EXPECT_EQ(bits(reused.bytes_from(p, f)), bits(fresh.bytes_from(p, f)));
    }
  }
}

TEST(IntermediateSnapshotDeathTest, UnlistedPartitionFails) {
  const JobRun job = mixed_job(1.0, 41);
  const auto listed = every_other_reduce(job);  // odd reduces only
  const IntermediateSnapshot part(job, 5.0, EstimatorMode::kProjected, 10,
                                  listed);
  EXPECT_DEATH((void)part.bytes_from(0, 2), "column_of_");
  EXPECT_DEATH((void)part.total_for(4), "column_of_");
  EXPECT_DEATH((void)part.total_for(job.reduce_count()), "column_of_");
}

/// A random subset of the hosts, ascending, of about `share` of them.
std::vector<NodeId> random_hosts(std::size_t hosts, double share, Rng& rng) {
  std::vector<NodeId> out;
  for (std::size_t n = 0; n < hosts; ++n) {
    if (rng.bernoulli(share)) out.push_back(NodeId(n));
  }
  return out;
}

/// Makes the free-map set of `c` (one map slot per node) exactly `free`:
/// every other node is dead, on probation or busy, picked at random.
void restrict_free_maps(cluster::Cluster& c, const std::vector<NodeId>& free,
                        Rng& rng) {
  std::vector<bool> keep(c.node_count(), false);
  for (NodeId n : free) keep[n.value()] = true;
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    if (keep[n]) continue;
    switch (rng.index(3)) {
      case 0:
        c.set_node_alive(NodeId(n), false);
        break;
      case 1:
        c.set_node_schedulable(NodeId(n), false);
        break;
      default:
        c.occupy_map_slot(NodeId(n));
        break;
    }
  }
}

TEST(HopColumnSums, EqualTheDefaultLoopBitwise) {
  std::vector<net::Topology> shapes;
  shapes.push_back(net::make_single_rack(60));
  shapes.push_back(net::make_multi_rack_tree({}));  // 4 x 15
  shapes.push_back(net::make_multi_rack_tree(
      {.racks = 3, .hosts_per_rack = 4}));
  for (const std::size_t k : {4u, 8u, 16u}) {
    shapes.push_back(net::make_fat_tree({.k = k}));
  }
  Rng rng(51);
  for (const net::Topology& topo : shapes) {
    const net::HopDistanceProvider hops(topo);
    const ForwardingDistance forwarded(&hops);
    for (int trial = 0; trial < 8; ++trial) {
      const double share = trial == 0 ? 1.0 : rng.uniform(0.05, 0.9);
      const auto candidates = random_hosts(topo.host_count(), share, rng);
      auto sources = random_hosts(topo.host_count(), 0.3, rng);
      sources.push_back(NodeId(topo.host_count() - 1));
      std::vector<double> fast(sources.size());
      std::vector<double> loop(sources.size());
      hops.column_sums(sources, candidates, 0.0, fast);
      forwarded.column_sums(sources, candidates, 0.0, loop);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        ASSERT_EQ(bits(fast[s]), bits(loop[s]))
            << topo.host_count() << " hosts, trial " << trial << ", source "
            << sources[s].value();
      }

      // Map side: with `candidates` as the free-map set N_m, a replica
      // set's nearest-replica hops and their closed-form sum over N_m
      // equal the pairwise min-over-replicas loop, bit for bit.
      cluster::NodeConfig one_slot;
      one_slot.map_slots = 1;
      cluster::Cluster clstr(&topo, one_slot, Rng(1));
      restrict_free_maps(clstr, candidates, rng);
      ASSERT_EQ(clstr.nodes_with_free_map_slots(), candidates);
      for (int set = 0; set < 8; ++set) {
        std::vector<NodeId> replicas;
        const std::size_t want = 1 + rng.index(3);
        while (replicas.size() < want) {
          const NodeId r(rng.index(topo.host_count()));
          if (std::find(replicas.begin(), replicas.end(), r) ==
              replicas.end()) {
            replicas.push_back(r);
          }
        }
        std::vector<std::uint32_t> coords;
        topo.append_set_coords(replicas, coords);
        double pairwise_sum = 0.0;
        for (std::size_t v = 0; v < topo.host_count(); ++v) {
          std::size_t nearest = std::numeric_limits<std::size_t>::max();
          for (NodeId r : replicas) {
            nearest = std::min(nearest, topo.hops(NodeId(v), r));
          }
          ASSERT_EQ(topo.nearest_hops(topo.coords_of(NodeId(v)), coords),
                    nearest)
              << topo.host_count() << " hosts, trial " << trial << ", node "
              << v;
          if (clstr.node(NodeId(v)).free_map_slots() > 0) {
            pairwise_sum += static_cast<double>(nearest);
          }
        }
        ASSERT_EQ(bits(static_cast<double>(clstr.free_map_hops(coords))),
                  bits(pairwise_sum))
            << topo.host_count() << " hosts, trial " << trial << ", "
            << replicas.size() << " replicas";
      }
    }
  }
}

/// Forwards distance() and reports the distances as time-varying, which
/// puts ReduceCostEvaluator on its read-everything-up-front path.
class VaryingDistance final : public net::DistanceProvider {
 public:
  explicit VaryingDistance(const net::DistanceProvider* inner)
      : inner_(inner) {}
  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds now) const override {
    return inner_->distance(a, b, now);
  }

 private:
  const net::DistanceProvider* inner_;
};

TEST(ReduceCostEvaluator, LazyRowsAndColumnSumsMatchTheFullFill) {
  // k=4 fat-tree: costs from rows fetched on first use and hop column
  // sums equal the ones from a provider read in full, bit for bit.
  const net::Topology topo = net::make_fat_tree({.k = 4});
  sim::Simulation sim;
  dfs::BlockStore store(topo.host_count());
  cluster::Cluster clstr(&topo, {}, Rng(1));
  sim::NetworkService network(&sim, &topo);
  const net::HopDistanceProvider hops(topo);
  const ForwardingDistance forwarded(&hops);
  const VaryingDistance varying(&hops);
  Engine lazy(&sim, &clstr, &store, &network, &hops, EngineConfig{});
  Engine looped(&sim, &clstr, &store, &network, &forwarded, EngineConfig{});
  Engine eager(&sim, &clstr, &store, &network, &varying, EngineConfig{});

  JobSpec spec;
  spec.name = "evals";
  spec.reduce_count = 9;
  for (std::size_t j = 0; j < 30; ++j) {
    spec.map_tasks.push_back(
        {store.add_block(64.0, {NodeId(j % topo.host_count())}), 64.0});
  }
  JobRun& job = lazy.submit(std::move(spec), Rng(2));
  Rng draw(3);
  for (std::size_t j = 0; j < job.map_count(); ++j) {
    auto& m = job.map_state(j);
    m.phase = j % 4 == 0 ? MapPhase::kDone : MapPhase::kComputing;
    m.node = NodeId(draw.index(topo.host_count()));
    m.compute_start = 0.0;
    m.compute_duration = draw.uniform(0.5, 4.0);
  }
  const std::vector<NodeId> candidates = {NodeId(0), NodeId(3), NodeId(5),
                                          NodeId(9), NodeId(14)};
  const std::vector<std::size_t> listed = {8, 2, 5};
  ReduceCostEvaluator a;
  ReduceCostEvaluator b;
  ReduceCostEvaluator c;
  a.reset(lazy, job, EstimatorMode::kProjected, candidates, listed);
  b.reset(looped, job, EstimatorMode::kProjected, candidates, listed);
  c.reset(eager, job, EstimatorMode::kProjected, candidates, listed);
  for (const std::size_t f : listed) {
    EXPECT_EQ(bits(a.average_cost(f)), bits(c.average_cost(f)));
    EXPECT_EQ(bits(b.average_cost(f)), bits(c.average_cost(f)));
    for (std::size_t k = candidates.size(); k-- > 0;) {
      EXPECT_EQ(bits(a.cost(k, f)), bits(c.cost(k, f)));
      EXPECT_EQ(bits(b.cost(k, f)), bits(c.cost(k, f)));
    }
  }
}

}  // namespace
}  // namespace mrs::core
