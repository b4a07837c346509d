// Tests for JobRun: intermediate-data ground truth, progress model,
// placement index and replica coordinates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mrs/mapreduce/job_run.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::mapreduce {
namespace {

JobSpec small_spec(std::size_t maps, std::size_t reduces,
                   Bytes block = 128.0) {
  JobSpec spec;
  spec.name = "test";
  spec.reduce_count = reduces;
  for (std::size_t j = 0; j < maps; ++j) {
    spec.map_tasks.push_back({BlockId(j), block});
  }
  return spec;
}

TEST(JobRun, IntermediateRowsSumToMapOutput) {
  JobSpec spec = small_spec(10, 7);
  spec.map_selectivity = 1.5;
  spec.selectivity_jitter = 0.2;
  JobRun job(spec, 4, Rng(1));
  for (std::size_t j = 0; j < 10; ++j) {
    double row = 0.0;
    for (std::size_t f = 0; f < 7; ++f) row += job.final_partition(j, f);
    EXPECT_NEAR(row, job.total_map_output(j), 1e-6);
    EXPECT_GT(job.total_map_output(j), 0.0);
  }
}

TEST(JobRun, SelectivityControlsOutputScale) {
  JobSpec spec = small_spec(50, 3);
  spec.map_selectivity = 2.0;
  spec.selectivity_jitter = 0.0;
  JobRun job(spec, 4, Rng(2));
  for (std::size_t j = 0; j < 50; ++j) {
    EXPECT_NEAR(job.total_map_output(j), 256.0, 1e-9);  // 128 * 2.0
  }
}

TEST(JobRun, PartitionSkewConcentrates) {
  JobSpec spec = small_spec(40, 10);
  spec.partition_skew = 1.5;
  spec.selectivity_jitter = 0.0;
  JobRun job(spec, 4, Rng(3));
  std::vector<double> per_partition(10, 0.0);
  for (std::size_t j = 0; j < 40; ++j) {
    for (std::size_t f = 0; f < 10; ++f) {
      per_partition[f] += job.final_partition(j, f);
    }
  }
  const auto [lo, hi] =
      std::minmax_element(per_partition.begin(), per_partition.end());
  EXPECT_GT(*hi, 3.0 * *lo);  // hot partition clearly larger
}

TEST(JobRun, ZeroSkewRoughlyUniform) {
  JobSpec spec = small_spec(100, 5);
  spec.partition_skew = 0.0;
  spec.selectivity_jitter = 0.0;
  JobRun job(spec, 4, Rng(4));
  std::vector<double> per_partition(5, 0.0);
  for (std::size_t j = 0; j < 100; ++j) {
    for (std::size_t f = 0; f < 5; ++f) {
      per_partition[f] += job.final_partition(j, f);
    }
  }
  const double total =
      std::accumulate(per_partition.begin(), per_partition.end(), 0.0);
  for (double p : per_partition) EXPECT_NEAR(p / total, 0.2, 0.03);
}

TEST(JobRun, ProgressZeroBeforeCompute) {
  JobRun job(small_spec(2, 2), 4, Rng(5));
  EXPECT_DOUBLE_EQ(job.map_progress(0, 100.0), 0.0);
  job.map_state(0).phase = MapPhase::kStartup;
  EXPECT_DOUBLE_EQ(job.map_progress(0, 100.0), 0.0);
}

TEST(JobRun, ProgressLinearDuringCompute) {
  JobRun job(small_spec(1, 2), 4, Rng(6));
  auto& m = job.map_state(0);
  m.phase = MapPhase::kComputing;
  m.compute_start = 10.0;
  m.compute_duration = 20.0;
  EXPECT_DOUBLE_EQ(job.map_progress(0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(job.map_progress(0, 20.0), 0.5);
  EXPECT_DOUBLE_EQ(job.map_progress(0, 30.0), 1.0);
  EXPECT_DOUBLE_EQ(job.map_progress(0, 99.0), 1.0);  // clamped
}

TEST(JobRun, FetchingProgressSaturatesBelowOne) {
  JobRun job(small_spec(1, 2), 4, Rng(6));
  auto& m = job.map_state(0);
  m.phase = MapPhase::kFetching;
  m.compute_start = 0.0;
  m.compute_duration = 10.0;
  EXPECT_DOUBLE_EQ(job.map_progress(0, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(job.map_progress(0, 100.0), 0.99);  // not done yet
}

TEST(JobRun, BytesReadTracksProgress) {
  JobSpec spec = small_spec(1, 2, 200.0);
  JobRun job(spec, 4, Rng(7));
  auto& m = job.map_state(0);
  m.phase = MapPhase::kComputing;
  m.compute_start = 0.0;
  m.compute_duration = 10.0;
  EXPECT_DOUBLE_EQ(job.bytes_read(0, 5.0), 100.0);
}

TEST(JobRun, CurrentPartitionLinearRamp) {
  JobSpec spec = small_spec(1, 3);
  spec.emit_nonlinearity = 1.0;
  spec.selectivity_jitter = 0.0;
  JobRun job(spec, 4, Rng(8));
  auto& m = job.map_state(0);
  m.phase = MapPhase::kComputing;
  m.compute_start = 0.0;
  m.compute_duration = 10.0;
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_NEAR(job.current_partition(0, f, 5.0),
                0.5 * job.final_partition(0, f), 1e-9);
  }
}

TEST(JobRun, NonlinearEmitRamp) {
  JobSpec spec = small_spec(1, 2);
  spec.emit_nonlinearity = 2.0;
  JobRun job(spec, 4, Rng(9));
  auto& m = job.map_state(0);
  m.phase = MapPhase::kComputing;
  m.compute_start = 0.0;
  m.compute_duration = 10.0;
  // p = 0.5 -> ramp = 0.25 with alpha = 2.
  EXPECT_NEAR(job.current_partition(0, 0, 5.0),
              0.25 * job.final_partition(0, 0), 1e-9);
}

TEST(JobRun, CountersFollowLifecycle) {
  JobRun job(small_spec(3, 2), 4, Rng(10));
  EXPECT_EQ(job.maps_unassigned(), 3u);
  EXPECT_EQ(job.reduces_unassigned(), 2u);
  EXPECT_FALSE(job.complete());
  job.note_map_assigned();
  EXPECT_EQ(job.maps_unassigned(), 2u);
  EXPECT_EQ(job.maps_running(), 1u);
  job.note_map_finished();
  EXPECT_EQ(job.maps_finished(), 1u);
  EXPECT_EQ(job.maps_running(), 0u);
  EXPECT_NEAR(job.map_finished_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(JobRun, HasReduceOnCountsOnlyRunning) {
  JobRun job(small_spec(2, 3), 4, Rng(11));
  EXPECT_FALSE(job.has_reduce_on(NodeId(1)));
  job.reduce_state(0).phase = ReducePhase::kShuffling;
  job.reduce_state(0).node = NodeId(1);
  EXPECT_TRUE(job.has_reduce_on(NodeId(1)));
  job.reduce_state(0).phase = ReducePhase::kDone;
  EXPECT_FALSE(job.has_reduce_on(NodeId(1)));  // completed frees the node
}

TEST(JobRun, UnassignedLists) {
  JobRun job(small_spec(3, 3), 4, Rng(12));
  job.map_state(1).phase = MapPhase::kComputing;
  job.reduce_state(0).phase = ReducePhase::kShuffling;
  EXPECT_EQ(job.unassigned_maps(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(job.unassigned_reduces(), (std::vector<std::size_t>{1, 2}));
}

class PlacementIndexTest : public ::testing::Test {
 protected:
  // 4 maps over 4 nodes; replicas: m0 -> {0,1}, m1 -> {1,2}, m2 -> {0,2},
  // m3 -> {1}. Rack 0 = nodes {0,1}, rack 1 = nodes {2,3}.
  PlacementIndexTest()
      : topo_(net::make_multi_rack_tree({.racks = 2, .hosts_per_rack = 2})),
        job_(small_spec(4, 2), 4, Rng(13)) {
    replicas_ = {{NodeId(0), NodeId(1)},
                 {NodeId(1), NodeId(2)},
                 {NodeId(0), NodeId(2)},
                 {NodeId(1)}};
    job_.build_placement_index(
        [this](std::size_t j) -> const std::vector<NodeId>& {
          return replicas_[j];
        },
        topo_);
  }
  net::Topology topo_;
  std::vector<std::vector<NodeId>> replicas_;
  JobRun job_;
};

TEST_F(PlacementIndexTest, LocalLookup) {
  EXPECT_EQ(job_.next_local_map(NodeId(0)), 0u);
  EXPECT_EQ(job_.next_local_map(NodeId(2)), 1u);
  job_.map_state(0).phase = MapPhase::kComputing;
  EXPECT_EQ(job_.next_local_map(NodeId(0)), 2u);  // cursor skips assigned
  job_.map_state(2).phase = MapPhase::kComputing;
  EXPECT_EQ(job_.next_local_map(NodeId(0)), 4u);  // exhausted
}

TEST_F(PlacementIndexTest, RackLookup) {
  EXPECT_EQ(job_.next_rack_map(RackId(1)), 1u);  // m1 has replica on node 2
  job_.map_state(1).phase = MapPhase::kComputing;
  EXPECT_EQ(job_.next_rack_map(RackId(1)), 2u);
  EXPECT_EQ(job_.next_rack_map(RackId::invalid()), 4u);
}

TEST_F(PlacementIndexTest, AnyLookupSkipsAssigned) {
  EXPECT_EQ(job_.next_any_map(), 0u);
  job_.map_state(0).phase = MapPhase::kComputing;
  job_.map_state(1).phase = MapPhase::kComputing;
  EXPECT_EQ(job_.next_any_map(), 2u);
}

TEST_F(PlacementIndexTest, ReplicaCoordsGiveMinHopsOverReplicas) {
  // Each map's replica coordinates: its racks and hosts, each once (a
  // tree's one pod, which every host shares, has none).
  EXPECT_EQ(job_.replica_coords(0).size(), 3u);  // rack 0, nodes 0 and 1
  EXPECT_EQ(job_.replica_coords(1).size(), 4u);  // racks 0 and 1, 2 nodes
  EXPECT_EQ(job_.replica_coords(3).size(), 2u);  // rack 0, node 1
  for (std::size_t j = 0; j < job_.map_count(); ++j) {
    for (std::size_t n = 0; n < topo_.host_count(); ++n) {
      std::size_t nearest = std::numeric_limits<std::size_t>::max();
      for (NodeId r : replicas_[j]) {
        nearest = std::min(nearest, topo_.hops(NodeId(n), r));
      }
      EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(n)),
                                   job_.replica_coords(j)),
                nearest)
          << "map " << j << " node " << n;
    }
  }
  // m1 = {1, 2}: node-local on 2, rack-local on 0 and 3, never remote.
  const auto m1 = job_.replica_coords(1);
  EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(2)), m1), 0u);
  EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(0)), m1), 2u);
  EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(3)), m1), 2u);
  // m3 = {1}: rack-local on 0, cross-rack (4 hops) on 2 and 3.
  const auto m3 = job_.replica_coords(3);
  EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(0)), m3), 2u);
  EXPECT_EQ(topo_.nearest_hops(topo_.coords_of(NodeId(3)), m3), 4u);
}

TEST(JobRunDeterminism, SameSeedSameGroundTruth) {
  JobSpec spec = small_spec(20, 10);
  JobRun a(spec, 4, Rng(42));
  JobRun b(spec, 4, Rng(42));
  for (std::size_t j = 0; j < 20; ++j) {
    for (std::size_t f = 0; f < 10; ++f) {
      EXPECT_DOUBLE_EQ(a.final_partition(j, f), b.final_partition(j, f));
    }
  }
}

}  // namespace
}  // namespace mrs::mapreduce
