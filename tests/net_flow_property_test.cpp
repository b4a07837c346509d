// Property tests: the flow model under randomized traffic must conserve
// bytes, never oversubscribe a link, and always drain.
#include <gtest/gtest.h>

#include <algorithm>

#include "mrs/common/rng.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/topology.hpp"
#include "flow_checks.hpp"

namespace mrs::net {
namespace {

constexpr double kGb = 1e9 / 8.0;

class RandomTrafficProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomTrafficProperty, ConservesBytesAndDrains) {
  Rng rng(GetParam());
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  cfg.host_link = units::Gbps(1);
  cfg.uplink = units::Gbps(4);
  const Topology topo = make_multi_rack_tree(cfg);
  FlowModel fm(&topo);

  // Random arrivals: 60 flows with random endpoints/sizes/caps over 30 s.
  Bytes total_offered = 0.0;
  Seconds now = 0.0;
  std::size_t started = 0;
  while (started < 60 || fm.active_count() > 0) {
    // Interleave arrivals and completions in time order.
    const Seconds next_arrival =
        started < 60 ? now + rng.uniform(0.0, 0.5) : 1e18;
    const auto completion = fm.next_completion();
    const Seconds next_completion =
        completion ? completion->first : 1e18;

    if (next_arrival <= next_completion) {
      now = next_arrival;
      fm.advance_to(now);
      const NodeId src(rng.index(topo.host_count()));
      NodeId dst(rng.index(topo.host_count()));
      if (dst == src) dst = NodeId((src.value() + 1) % topo.host_count());
      const Bytes size = rng.uniform(0.01, 2.0) * kGb;
      const BytesPerSec cap =
          rng.bernoulli(0.4) ? rng.uniform(0.05, 0.5) * kGb : 1e18;
      fm.start(src, dst, size, now, cap);
      total_offered += size;
      ++started;

      // Invariant at every arrival: no directed link oversubscribed, every
      // active flow within its cap.
      for (std::size_t d = 0; d < topo.link_count() * 2; ++d) {
        const double capacity = topo.link(LinkId(d / 2)).capacity;
        EXPECT_LE(fm.directed_link_load(d), capacity * 1.0001);
      }
    } else {
      now = next_completion;
      fm.advance_to(now + 1e-9);
      fm.collect_completed();
    }
    ASSERT_LT(now, 1e6) << "traffic failed to drain";
  }
  EXPECT_NEAR(fm.bytes_delivered(), total_offered, total_offered * 1e-9 + 60);
}

TEST_P(RandomTrafficProperty, RateNeverExceedsCap) {
  Rng rng(GetParam() + 1000);
  const Topology topo = make_single_rack(6, units::Gbps(1));
  FlowModel fm(&topo);
  std::vector<std::pair<FlowId, BytesPerSec>> caps;
  for (int i = 0; i < 20; ++i) {
    const NodeId src(rng.index(6));
    NodeId dst(rng.index(6));
    if (dst == src) dst = NodeId((src.value() + 1) % 6);
    const BytesPerSec cap = rng.uniform(0.05, 1.5) * kGb;
    caps.emplace_back(fm.start(src, dst, 100.0 * kGb, 0.0, cap), cap);
  }
  for (const auto& [id, cap] : caps) {
    EXPECT_LE(fm.info(id).rate, cap * 1.0001);
  }
}

// The progressive-filling invariants, checked at every event of a random
// stream by testing::expect_max_min_fair: (a) per-link frozen-rate sums
// never exceed capacity beyond 1e-9 relative error (the exact-residual last
// freeze removes the old subtraction-drift leak); (b) the on-demand link
// loads equal a from-scratch audit bitwise; (c) max-min optimality — every
// flow is either at its application cap or bottlenecked on some saturated
// link where it gets a maximal share.
TEST_P(RandomTrafficProperty, FrozenSumsAndMaxMinOptimality) {
  Rng rng(GetParam() + 2000);
  TreeTopologyConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  cfg.host_link = units::Gbps(1);
  cfg.uplink = units::Gbps(4);
  const Topology topo = make_multi_rack_tree(cfg);
  FlowModel fm(&topo);

  std::vector<FlowId> live;
  Seconds now = 0.0;
  for (std::size_t event = 0; event < 120; ++event) {
    if (live.size() > 40 || (!live.empty() && rng.bernoulli(0.3))) {
      const auto next = fm.next_completion();
      ASSERT_TRUE(next.has_value());
      now = next->first + 1e-9;
      fm.advance_to(now);
      for (const FlowId id : fm.collect_completed()) {
        live.erase(std::find(live.begin(), live.end(), id));
      }
    } else {
      now += rng.uniform(0.0, 0.2);
      const NodeId src(rng.index(topo.host_count()));
      NodeId dst(rng.index(topo.host_count()));
      if (dst == src) dst = NodeId((src.value() + 1) % topo.host_count());
      const BytesPerSec cap =
          rng.bernoulli(0.4) ? rng.uniform(0.02, 0.5) * kGb : 1e18;
      live.push_back(
          fm.start(src, dst, rng.uniform(0.05, 2.0) * kGb, now, cap));
    }

    mrs::testing::expect_max_min_fair(fm, topo, nullptr, live);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrafficProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace mrs::net
