// Tests for the flow-level max-min fair bandwidth sharing model.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "mrs/common/rng.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {
namespace {

constexpr double kGb = 1e9 / 8.0;  // 1 Gbps in bytes/s

TEST(FlowModel, SingleFlowGetsFullBottleneck) {
  const Topology t = make_single_rack(3, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId id = fm.start(NodeId(0), NodeId(1), 1000.0 * kGb, 0.0);
  EXPECT_NEAR(fm.info(id).rate, kGb, 1.0);
  EXPECT_EQ(fm.active_count(), 1u);
}

TEST(FlowModel, CompletionTimeMatchesRate) {
  const Topology t = make_single_rack(2, units::Gbps(1));
  FlowModel fm(&t);
  fm.start(NodeId(0), NodeId(1), 10.0 * kGb, 0.0);  // 10 seconds at 1 Gbps
  const auto next = fm.next_completion();
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(next->first, 10.0, 1e-6);
}

TEST(FlowModel, FlowShorterThanHalfAnUlpOfNowStillCompletes) {
  // At now = 2^17 s one ulp of a double is 2^-35 s (2.9e-11 s). A
  // 1.5e-3-byte flow at 1 Gbps needs 1.2e-11 s, under half an ulp, so
  // now + 1.2e-11 rounds to now itself. The ETA must still lie after now,
  // and advancing to it must complete the flow; otherwise the network
  // service re-arms at the same instant forever.
  const Topology t = make_single_rack(2, units::Gbps(1));
  FlowModel fm(&t);
  const Seconds now = 131072.0;
  const FlowId id = fm.start(NodeId(0), NodeId(1), 1.5e-3, now);
  const auto next = fm.next_completion();
  ASSERT_TRUE(next.has_value());
  EXPECT_GT(next->first, now);
  fm.advance_to(next->first);
  EXPECT_EQ(fm.collect_completed(), std::vector<FlowId>{id});
  EXPECT_EQ(fm.active_count(), 0u);
  EXPECT_EQ(fm.bytes_delivered(), 1.5e-3);
}

TEST(FlowModel, TwoFlowsShareSourceUplink) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId a = fm.start(NodeId(0), NodeId(1), 100.0 * kGb, 0.0);
  const FlowId b = fm.start(NodeId(0), NodeId(2), 100.0 * kGb, 0.0);
  // Both leave node 0: its uplink is the bottleneck, split evenly.
  EXPECT_NEAR(fm.info(a).rate, kGb / 2, 1.0);
  EXPECT_NEAR(fm.info(b).rate, kGb / 2, 1.0);
}

TEST(FlowModel, DisjointFlowsDoNotShare) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId a = fm.start(NodeId(0), NodeId(1), 100.0 * kGb, 0.0);
  const FlowId b = fm.start(NodeId(2), NodeId(3), 100.0 * kGb, 0.0);
  EXPECT_NEAR(fm.info(a).rate, kGb, 1.0);
  EXPECT_NEAR(fm.info(b).rate, kGb, 1.0);
}

TEST(FlowModel, MaxMinReallocatesAfterCompletion) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId a = fm.start(NodeId(0), NodeId(1), 1.0 * kGb, 0.0);
  const FlowId b = fm.start(NodeId(0), NodeId(2), 100.0 * kGb, 0.0);
  EXPECT_NEAR(fm.info(b).rate, kGb / 2, 1.0);
  // Flow a (0.5 GB/s for 1 GB*8... advance until a completes at t=2s).
  fm.advance_to(2.0 + 1e-6);
  const auto done = fm.collect_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], a);
  EXPECT_NEAR(fm.info(b).rate, kGb, 1.0);  // b now gets the full link
}

TEST(FlowModel, RateCapHonored) {
  const Topology t = make_single_rack(3, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId a =
      fm.start(NodeId(0), NodeId(1), 100.0 * kGb, 0.0, /*cap=*/kGb / 10);
  EXPECT_NEAR(fm.info(a).rate, kGb / 10, 1.0);
}

TEST(FlowModel, CappedFlowSurplusGoesToOthers) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId slow =
      fm.start(NodeId(0), NodeId(1), 100.0 * kGb, 0.0, /*cap=*/kGb / 4);
  const FlowId fast = fm.start(NodeId(0), NodeId(2), 100.0 * kGb, 0.0);
  // Uplink of node 0 carries both; the capped flow uses 1/4, the other
  // takes the remaining 3/4 rather than being held to an equal share.
  EXPECT_NEAR(fm.info(slow).rate, kGb / 4, 1.0);
  EXPECT_NEAR(fm.info(fast).rate, 3.0 * kGb / 4, 1.0);
}

TEST(FlowModel, NoLinkOversubscription) {
  const Topology t = make_single_rack(6, units::Gbps(1));
  FlowModel fm(&t);
  // Many crossing flows with varied caps.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      fm.start(NodeId(i), NodeId(j), 1000.0 * kGb, 0.0,
               (i + j) % 2 ? kGb / 3 : kGb);
    }
  }
  for (std::size_t d = 0; d < t.link_count() * 2; ++d) {
    EXPECT_LE(fm.directed_link_load(d), kGb * 1.001);
  }
}

TEST(FlowModel, BottleneckLinkSaturated) {
  const Topology t = make_single_rack(5, units::Gbps(1));
  FlowModel fm(&t);
  // Three flows into node 0: its downlink should be fully used.
  fm.start(NodeId(1), NodeId(0), 100.0 * kGb, 0.0);
  fm.start(NodeId(2), NodeId(0), 100.0 * kGb, 0.0);
  fm.start(NodeId(3), NodeId(0), 100.0 * kGb, 0.0);
  // Find node 0's host link: the only link adjacent to its vertex.
  const auto& path = t.path(NodeId(1), NodeId(0));
  const std::size_t downlink = path.back().directed_index();
  EXPECT_NEAR(fm.directed_link_load(downlink), kGb, 10.0);
}

TEST(FlowModel, ByteConservation) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const Bytes total = 3.0 * kGb;
  fm.start(NodeId(0), NodeId(1), total, 0.0);
  fm.start(NodeId(2), NodeId(3), total, 0.0);
  Seconds now = 0.0;
  while (fm.active_count() > 0) {
    const auto next = fm.next_completion();
    ASSERT_TRUE(next.has_value());
    now = next->first;
    fm.advance_to(now + 1e-9);
    fm.collect_completed();
  }
  EXPECT_NEAR(fm.bytes_delivered(), 2.0 * total, 1.0);
}

TEST(FlowModel, CancelStopsFlow) {
  const Topology t = make_single_rack(3, units::Gbps(1));
  FlowModel fm(&t);
  const FlowId a = fm.start(NodeId(0), NodeId(1), 100.0 * kGb, 0.0);
  const FlowId b = fm.start(NodeId(0), NodeId(2), 100.0 * kGb, 0.0);
  fm.cancel(a, 1.0);
  EXPECT_FALSE(fm.info(a).active);
  EXPECT_EQ(fm.active_count(), 1u);
  EXPECT_NEAR(fm.info(b).rate, kGb, 1.0);  // freed share reallocated
  EXPECT_TRUE(fm.collect_completed().empty());  // cancel is not completion
}

TEST(FlowModel, FlowCountsPerLink) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel fm(&t);
  const auto& path01 = t.path(NodeId(0), NodeId(1));
  const std::size_t up0 = path01.front().directed_index();
  EXPECT_EQ(fm.flows_on(up0), 0u);
  fm.start(NodeId(0), NodeId(1), kGb, 0.0);
  fm.start(NodeId(0), NodeId(2), kGb, 0.0);
  EXPECT_EQ(fm.flows_on(up0), 2u);
  fm.advance_to(100.0);  // both complete
  fm.collect_completed();
  EXPECT_EQ(fm.flows_on(up0), 0u);
}

TEST(FlowModel, ManyFlowsFairShare) {
  const Topology t = make_single_rack(9, units::Gbps(1));
  FlowModel fm(&t);
  std::vector<FlowId> ids;
  for (std::size_t i = 1; i <= 8; ++i) {
    ids.push_back(fm.start(NodeId(i), NodeId(0), 100.0 * kGb, 0.0));
  }
  for (FlowId id : ids) {
    EXPECT_NEAR(fm.info(id).rate, kGb / 8, 1.0);  // dst downlink split 8-way
  }
}

TEST(FlowModel, CrossRackBottleneckOnUplink) {
  TreeTopologyConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.host_link = units::Gbps(1);
  cfg.uplink = units::Gbps(2);
  const Topology t = make_multi_rack_tree(cfg);
  FlowModel fm(&t);
  // Four cross-rack flows from distinct sources to distinct destinations:
  // each host link carries one flow, the 2 Gbps rack uplink carries all
  // four -> uplink is the bottleneck at 0.5 Gbps each.
  std::vector<FlowId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(
        fm.start(NodeId(i), NodeId(4 + i), 100.0 * kGb, 0.0));
  }
  for (FlowId id : ids) {
    EXPECT_NEAR(fm.info(id).rate, 0.5 * kGb, 1.0);
  }
}

TEST(FlowModel, DeferredScopeSolvesOnceOnClose) {
  const Topology t = make_single_rack(4, units::Gbps(1));
  FlowModel eager(&t);
  FlowModel deferred(&t);
  const FlowId a = eager.start(NodeId(0), NodeId(1), 1.0 * kGb, 0.0);
  deferred.start(NodeId(0), NodeId(1), 1.0 * kGb, 0.0);
  const std::uint64_t solves0 = deferred.solves();
  eager.advance_to(2.0);  // a completes; b, c, d start at the same instant
  const FlowId b = eager.start(NodeId(0), NodeId(2), 100.0 * kGb, 2.0);
  const FlowId c = eager.start(NodeId(0), NodeId(3), 100.0 * kGb, 2.0);
  const FlowId d = eager.start(NodeId(3), NodeId(2), 100.0 * kGb, 2.0);
  eager.cancel(c, 2.0);
  {
    const FlowModel::DeferredSolves scope(deferred);
    EXPECT_TRUE(deferred.solves_deferred());
    deferred.advance_to(2.0);
    ASSERT_EQ(deferred.collect_completed(), std::vector<FlowId>{a});
    EXPECT_TRUE(deferred.solve_pending());
    deferred.start(NodeId(0), NodeId(2), 100.0 * kGb, 2.0);
    deferred.start(NodeId(0), NodeId(3), 100.0 * kGb, 2.0);
    deferred.start(NodeId(3), NodeId(2), 100.0 * kGb, 2.0);
    deferred.cancel(c, 2.0);
    EXPECT_EQ(deferred.solves(), solves0);  // nothing solved yet
  }
  EXPECT_FALSE(deferred.solves_deferred());
  EXPECT_FALSE(deferred.solve_pending());
  EXPECT_EQ(deferred.solves(), solves0 + 1);
  EXPECT_EQ(eager.solves(), solves0 + 4);
  for (const FlowId id : {a, b, c, d}) {
    EXPECT_EQ(deferred.info(id).rate, eager.info(id).rate);  // bitwise
    EXPECT_EQ(deferred.info(id).active, eager.info(id).active);
  }
  EXPECT_EQ(deferred.next_completion(), eager.next_completion());
  EXPECT_NEAR(deferred.info(b).rate, kGb / 2, 1.0);  // shares 2's downlink
}

TEST(FlowModel, DeferredScopeSettlesBeforeTimeMoves) {
  // Bytes must move at settled rates: advancing to a later time inside the
  // scope runs the pending solve first, so b and c progress at half rate.
  const Topology t = make_single_rack(3, units::Gbps(1));
  FlowModel fm(&t);
  const FlowModel::DeferredSolves scope(fm);
  const FlowId b = fm.start(NodeId(0), NodeId(1), 1.0 * kGb, 0.0);
  const FlowId c = fm.start(NodeId(0), NodeId(2), 3.0 * kGb, 0.0);
  fm.advance_to(2.0 + 1e-6);  // b finishes at t=2 at half the link
  EXPECT_EQ(fm.collect_completed(), std::vector<FlowId>{b});
  fm.recompute_rates();  // settles too
  EXPECT_FALSE(fm.solve_pending());
  EXPECT_NEAR(fm.info(c).remaining, 2.0 * kGb, 1e3);
  EXPECT_NEAR(fm.info(c).rate, kGb, 1.0);
}

TEST(FlowModel, DeferredScopeSettlesBeforeCapacitiesChange) {
  // A fault toggled inside the scope, after the last flow event: the eager
  // model solved that event at the old capacities and only sees the cut at
  // its next event. The before-change hook gives the deferred model the
  // same rates.
  const Topology t = make_single_rack(3, units::Gbps(1));
  LinkConditionModel eager_cond(&t, {}, Rng(1));
  LinkConditionModel deferred_cond(&t, {}, Rng(1));
  FlowModel eager(&t, &eager_cond);
  FlowModel deferred(&t, &deferred_cond);
  deferred_cond.set_before_change([&] { deferred.settle(); });
  const FlowId a = eager.start(NodeId(0), NodeId(1), kGb, 0.0);
  eager_cond.set_link_fault(LinkId(0), true);
  {
    const FlowModel::DeferredSolves scope(deferred);
    deferred.start(NodeId(0), NodeId(1), kGb, 0.0);
    deferred_cond.set_link_fault(LinkId(0), true);
    EXPECT_FALSE(deferred.solve_pending());
  }
  EXPECT_EQ(deferred.info(a).rate, eager.info(a).rate);
  EXPECT_EQ(deferred.info(a).stalled, eager.info(a).stalled);
  EXPECT_FALSE(deferred.info(a).stalled);  // the cut is seen at a later event
  deferred_cond.set_before_change({});
}

TEST(FlowModelDeathTest, ReadingRatesWhileASolveIsPendingAborts) {
  // The stale-read rule: no rate reader may see the rates of a deferred
  // scope before it settles (always-on MRS_REQUIRE, not a debug assert).
  const Topology t = make_single_rack(3, units::Gbps(1));
  FlowModel fm(&t);
  const FlowModel::DeferredSolves scope(fm);
  const FlowId a = fm.start(NodeId(0), NodeId(1), kGb, 0.0);
  EXPECT_EQ(fm.active_count(), 1u);  // structural reads stay allowed
  EXPECT_EQ(fm.flows_on(t.path(NodeId(0), NodeId(1)).front()
                            .directed_index()),
            1u);
  EXPECT_DEATH((void)fm.info(a), "solve_pending");
  EXPECT_DEATH((void)fm.next_completion(), "solve_pending");
  EXPECT_DEATH((void)fm.directed_link_load(0), "solve_pending");
  EXPECT_DEATH((void)fm.stalled_count(), "solve_pending");
}

// Starts `routes` (src, dst host pairs, in order) on an incremental and a
// naive model and checks that every rate and link load agrees bit for bit;
// returns the incremental model's rates.
std::vector<BytesPerSec> rates_matching_naive(
    const Topology& t, const std::vector<std::pair<int, int>>& routes) {
  FlowModel fast(&t);
  FlowModel naive(&t);
  naive.set_naive_flow_solver(true);
  std::vector<FlowId> ids;
  for (const auto& [src, dst] : routes) {
    ids.push_back(fast.start(NodeId(src), NodeId(dst), 100.0 * kGb, 0.0));
    naive.start(NodeId(src), NodeId(dst), 100.0 * kGb, 0.0);
  }
  std::vector<BytesPerSec> rates;
  for (const FlowId id : ids) {
    EXPECT_EQ(fast.info(id).rate, naive.info(id).rate) << id.value();
    rates.push_back(fast.info(id).rate);
  }
  for (std::size_t d = 0; d < t.link_count() * 2; ++d) {
    EXPECT_EQ(fast.directed_link_load(d), naive.directed_link_load(d)) << d;
  }
  return rates;
}

// Bottleneck ties the search must break exactly like the naive full scan
// (the FlowDifferential* suites also run under TSan in CI).
TEST(FlowDifferentialTies, EqualSharesBreakOnDirectedIndex) {
  // Two links of one region with bit-equal shares: host 5's uplink and
  // host 2's downlink each carry three flows. Flow 0 crosses both and is
  // started first, so the region solve registers host 5's uplink first,
  // although its directed index is the larger one. Which of the two
  // freezes first decides the bits: the second one's share is then
  // (C - C/3) / 2, which rounds differently from C/3 at 1 Gbps. The
  // search must pick the smaller directed index, as the naive full scan
  // does.
  const Topology t = make_single_rack(6, units::Gbps(1));
  const auto route = t.path(NodeId(5), NodeId(2));
  ASSERT_GT(route.front().directed_index(), route.back().directed_index());
  const double c = units::Gbps(1);
  ASSERT_NE((c - c / 3) / 2, c / 3);  // the order of the two is visible

  const auto rates =
      rates_matching_naive(t, {{5, 2}, {5, 3}, {5, 4}, {0, 2}, {1, 2}});
  // Host 2's downlink froze first: its flows 3 and 4 got the first share.
  EXPECT_EQ(rates[3], c / 3);
  EXPECT_NE(rates[1], c / 3);
}

TEST(FlowDifferentialTies, EqualSharesAcrossSearchBlocks) {
  // The same tie with the two links in different blocks of the bottleneck
  // search: host 79's uplink is registered first, then a zigzag chain of
  // flows (two per link, share C/2) registers 62 more links, and only then
  // does a flow from host 79 reach host 0's downlink, the 66th link. Both
  // links end with three flows (share C/3), and host 0's downlink has the
  // smaller directed index, so it must freeze first.
  const Topology t = make_single_rack(80, units::Gbps(1));
  const auto route = t.path(NodeId(79), NodeId(0));
  ASSERT_GT(route.front().directed_index(), route.back().directed_index());
  std::vector<std::pair<int, int>> routes = {{79, 3}, {79, 4}, {5, 4}};
  for (int x = 5; x < 67; x += 2) {
    routes.emplace_back(x, x + 1);
    if (x + 2 < 67) routes.emplace_back(x + 2, x + 1);
  }
  routes.insert(routes.end(), {{79, 0}, {1, 0}, {2, 0}});

  const auto rates = rates_matching_naive(t, routes);
  const double c = units::Gbps(1);
  EXPECT_EQ(rates[rates.size() - 3], c / 3);  // 79 -> 0
  EXPECT_NE(rates[0], c / 3);                 // 79 -> 3
}

TEST(FlowDifferentialTies, StalledFlowAddsNoLoadToASharedLink) {
  // Host 0's uplink carries four flows. The capped fourth makes the running
  // rates unequal, so their sum's bits depend on the order it is taken in.
  // Then host 2's link is cut under the second, which was running: it must
  // park at rate 0, and the uplink's load must equal the naive model's and
  // an ascending-order audit of the running flows, bit for bit.
  const Topology t = make_single_rack(5, units::Gbps(1));
  LinkConditionModel cond(&t, BackgroundTrafficConfig{}, Rng(1));
  FlowModel fast(&t, &cond);
  FlowModel naive(&t, &cond);
  naive.set_naive_flow_solver(true);
  const double c = units::Gbps(1);
  std::vector<FlowId> ids;
  for (const auto& [dst, cap] : std::vector<std::pair<int, double>>{
           {1, 1e18}, {2, 1e18}, {3, 1e18}, {4, c / 7}}) {
    ids.push_back(fast.start(NodeId(0), NodeId(dst), 100.0 * kGb, 0.0, cap));
    naive.start(NodeId(0), NodeId(dst), 100.0 * kGb, 0.0, cap);
  }
  ASSERT_GT(fast.info(ids[1]).rate, 0.0);
  cond.set_link_fault(t.path(NodeId(0), NodeId(2)).back().link, true);
  fast.recompute_rates();
  naive.recompute_rates();
  const std::size_t up0 = t.path(NodeId(0), NodeId(1)).front().directed_index();
  ASSERT_EQ(fast.flows_on(up0), 4u);
  ASSERT_TRUE(fast.info(ids[1]).stalled);
  EXPECT_EQ(fast.info(ids[1]).rate, 0.0);
  EXPECT_EQ(fast.stalled_count(), 1u);

  double audit = 0.0;
  for (const FlowId id : ids) {
    EXPECT_EQ(fast.info(id).rate, naive.info(id).rate) << id.value();
    if (!fast.info(id).stalled) audit += fast.info(id).rate;
  }
  EXPECT_NE(fast.info(ids[0]).rate, fast.info(ids[3]).rate);
  EXPECT_EQ(fast.directed_link_load(up0), audit);
  for (std::size_t d = 0; d < t.link_count() * 2; ++d) {
    EXPECT_EQ(fast.directed_link_load(d), naive.directed_link_load(d)) << d;
  }
}

// Property sweep: with n equal flows through one bottleneck, each gets 1/n.
class FairShareProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FairShareProperty, EqualSplit) {
  const std::size_t n = GetParam();
  const Topology t = make_single_rack(n + 1, units::Gbps(1));
  FlowModel fm(&t);
  std::vector<FlowId> ids;
  for (std::size_t i = 1; i <= n; ++i) {
    ids.push_back(fm.start(NodeId(i), NodeId(0), 100.0 * kGb, 0.0));
  }
  for (FlowId id : ids) {
    EXPECT_NEAR(fm.info(id).rate, kGb / double(n), 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FairShareProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

}  // namespace
}  // namespace mrs::net
