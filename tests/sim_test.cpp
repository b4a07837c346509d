// Tests for the discrete-event engine and the network service coupling.
#include <gtest/gtest.h>

#include <vector>

#include "mrs/net/topology.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::sim {
namespace {

constexpr double kGb = 1e9 / 8.0;

TEST(Simulation, FiresInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleInUsesCurrentTime) {
  Simulation s;
  Seconds fired_at = -1.0;
  s.schedule_at(2.0, [&] {
    s.schedule_in(3.0, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation s;
  bool fired = false;
  const EventHandle h = s.schedule_at(1.0, [&] { fired = true; });
  s.cancel(h);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.processed_count(), 0u);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation s;
  int fired = 0;
  const EventHandle h = s.schedule_at(1.0, [&] { ++fired; });
  s.run();
  s.cancel(h);  // must not underflow counters or crash
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulation, DoubleCancelSafe) {
  Simulation s;
  const EventHandle h = s.schedule_at(1.0, [] {});
  s.cancel(h);
  s.cancel(h);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulation, RunRespectsMaxTime) {
  Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(10.0, [&] { ++fired; });
  s.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ClockNeverGoesBackward) {
  Simulation s;
  Seconds last = 0.0;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(double(100 - i), [&, i] {
      EXPECT_GE(s.now(), last);
      last = s.now();
    });
  }
  s.run();
}

TEST(Simulation, ReentrantSchedulingChain) {
  Simulation s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) s.schedule_in(0.001, chain);
  };
  s.schedule_at(0.0, chain);
  s.run();
  EXPECT_EQ(count, 1000);
}

TEST(Simulation, CompactionKeepsLiveEvents) {
  Simulation s;
  // Force many fired events (beyond the compaction threshold), then check
  // that a late event scheduled early still fires.
  bool late_fired = false;
  s.schedule_at(1e6, [&] { late_fired = true; });
  for (int i = 0; i < 5000; ++i) {
    s.schedule_at(double(i), [] {});
  }
  s.run();
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(s.processed_count(), 5001u);
}

TEST(Simulation, MassCancelSweepsTombstones) {
  Simulation s;
  // Schedule a large batch, cancel most of it: the lazy-deletion sweep
  // must reclaim the heap instead of carrying every tombstone to the end.
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 4000; ++i) {
    handles.push_back(s.schedule_at(double(i + 1), [&] { ++fired; }));
  }
  for (int i = 0; i < 4000; i += 2) s.cancel(handles[size_t(i)]);
  EXPECT_EQ(s.pending_count(), 2000u);
  // The sweep triggers once tombstones reach half the heap, so the queue
  // never holds more than live + half-ish dead entries.
  EXPECT_LT(s.queue_size(), 4000u);
  for (int i = 1; i < 4000; i += 2) s.cancel(handles[size_t(i)]);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_LT(s.queue_size(), 2000u);
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.processed_count(), 0u);
}

TEST(Simulation, CancelHeavyStreamStillFiresLiveInOrder) {
  Simulation s;
  // Interleave cancels with live events across several sweep rounds and
  // check that ordering of the survivors is untouched.
  std::vector<int> order;
  for (int round = 0; round < 10; ++round) {
    std::vector<EventHandle> dead;
    for (int i = 0; i < 500; ++i) {
      dead.push_back(s.schedule_at(1000.0 + round, [] {}));
    }
    s.schedule_at(double(round + 1), [&order, round] {
      order.push_back(round);
    });
    for (const auto& h : dead) s.cancel(h);
  }
  s.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[size_t(i)], i);
}

TEST(NetworkService, TransferCompletesOnce) {
  Simulation s;
  const net::Topology topo = net::make_single_rack(3, units::Gbps(1));
  NetworkService net(&s, &topo);
  int done = 0;
  net.transfer(NodeId(0), NodeId(1), 2.0 * kGb, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 1);
  EXPECT_NEAR(s.now(), 2.0, 1e-6);
  EXPECT_EQ(net.active_transfers(), 0u);
}

TEST(NetworkService, ConcurrentTransfersReschedule) {
  Simulation s;
  const net::Topology topo = net::make_single_rack(4, units::Gbps(1));
  NetworkService net(&s, &topo);
  std::vector<Seconds> completions;
  // Two flows share node 0's uplink: the short one finishes first, then
  // the long one accelerates.
  net.transfer(NodeId(0), NodeId(1), 1.0 * kGb,
               [&] { completions.push_back(s.now()); });
  net.transfer(NodeId(0), NodeId(2), 3.0 * kGb,
               [&] { completions.push_back(s.now()); });
  s.run();
  ASSERT_EQ(completions.size(), 2u);
  // Short: 1 GB at 0.5 GB/s = 2 s. Long: 1 GB by t=2 (half rate), then
  // 2 GB at full rate = 2 more seconds -> 4 s.
  EXPECT_NEAR(completions[0], 2.0, 1e-6);
  EXPECT_NEAR(completions[1], 4.0, 1e-6);
}

TEST(NetworkService, CallbackMayStartNewTransfer) {
  Simulation s;
  const net::Topology topo = net::make_single_rack(3, units::Gbps(1));
  NetworkService net(&s, &topo);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 3) {
      net.transfer(NodeId(0), NodeId(1), 1.0 * kGb, next);
    }
  };
  net.transfer(NodeId(0), NodeId(1), 1.0 * kGb, next);
  s.run();
  EXPECT_EQ(chain, 3);
  EXPECT_NEAR(s.now(), 3.0, 1e-6);
}

TEST(NetworkService, CancelSuppressesCallback) {
  Simulation s;
  const net::Topology topo = net::make_single_rack(3, units::Gbps(1));
  NetworkService net(&s, &topo);
  bool fired = false;
  const FlowId id =
      net.transfer(NodeId(0), NodeId(1), 10.0 * kGb, [&] { fired = true; });
  s.schedule_at(1.0, [&] { net.cancel(id); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(NetworkService, CompletionDispatchSolvesAndArmsOnce) {
  // A completion callback starts three transfers and cancels one of them:
  // the whole dispatch is one deferral scope, so the completion and the
  // four flow changes cost one region solve, and the completion event is
  // armed once, after the callback.
  Simulation s;
  const net::Topology topo = net::make_single_rack(4, units::Gbps(1));
  NetworkService net(&s, &topo);
  std::vector<int> fired(4, 0);
  FlowId b, c, d;
  bool pending_in_callback = false;
  net.transfer(NodeId(0), NodeId(1), 1.0 * kGb, [&] {
    ++fired[0];
    b = net.transfer(NodeId(0), NodeId(2), 1.0 * kGb, [&] { ++fired[1]; });
    c = net.transfer(NodeId(0), NodeId(3), 1.0 * kGb, [&] { ++fired[2]; });
    d = net.transfer(NodeId(3), NodeId(2), 1.0 * kGb, [&] { ++fired[3]; });
    net.cancel(c);
    // Stale-read rule: rates are unreadable until the dispatch settles.
    pending_in_callback = net.flows().solve_pending();
    EXPECT_EQ(s.pending_count(), 0u);  // no nested re-arm
  });
  const std::uint64_t solves0 = net.flows().solves();
  ASSERT_TRUE(s.step());  // a completes at t=1; its callback runs
  EXPECT_EQ(fired, (std::vector<int>{1, 0, 0, 0}));
  EXPECT_TRUE(pending_in_callback);
  EXPECT_FALSE(net.flows().solve_pending());
  EXPECT_EQ(net.flows().solves(), solves0 + 1);
  EXPECT_EQ(s.pending_count(), 1u);  // exactly one live completion event
  EXPECT_EQ(net.active_transfers(), 2u);
  EXPECT_NEAR(net.flows().info(b).rate, kGb / 2, 1.0);  // b, d share 2's link
  EXPECT_NEAR(net.flows().info(d).rate, kGb / 2, 1.0);
  EXPECT_FALSE(net.flows().info(c).active);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 0, 1}));
  EXPECT_NEAR(s.now(), 3.0, 1e-6);  // 1 GB each at half rate from t=1
}

TEST(NetworkService, QueueDrainsWithConditionModel) {
  // With a background model the condition tick must self-cancel when the
  // network goes idle, letting the event queue drain.
  Simulation s;
  const net::Topology topo = net::make_single_rack(3, units::Gbps(1));
  net::BackgroundTrafficConfig bg;
  bg.mean_utilization = 0.2;
  bg.resample_interval = 5.0;
  bg.uplinks_only = false;
  net::LinkConditionModel cond(&topo, bg, Rng(3));
  NetworkService net(&s, &topo, &cond);
  int done = 0;
  net.transfer(NodeId(0), NodeId(1), 2.0 * kGb, [&] { ++done; });
  const std::size_t events = s.run(1e6);
  EXPECT_EQ(done, 1);
  EXPECT_LT(s.now(), 100.0);  // drained shortly after the transfer
  EXPECT_LT(events, 100u);
}

}  // namespace
}  // namespace mrs::sim
