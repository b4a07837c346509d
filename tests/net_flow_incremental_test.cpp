// Randomized differential tests for the flow solver: the incremental
// component-local path, the retained naive full-scan reference
// (set_naive_flow_solver), and the deterministic parallel component sweep
// (set_flow_solver_threads) must agree byte-for-byte — on every flow's rate,
// remaining bytes, stall flag, completion order, and every maintained
// per-link rate aggregate — across thousands of interleaved start / cancel /
// advance / resample / fault events on fat-trees from k=4 up to the 1k-host
// k=16 case. The DeferredBursts cases feed the incremental model its events
// in bursts inside one FlowModel::DeferredSolves scope (as the network
// service does per completion dispatch) and compare it, after each scope
// closes, with the eager and naive models fed the same events one by one.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mrs/common/rng.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {
namespace {

constexpr double kGb = 1e9 / 8.0;

struct DifferentialOptions {
  std::size_t events = 1000;
  bool with_condition = false;  ///< background-traffic resamples (epochs)
  bool with_faults = false;     ///< random link cuts/repairs
  bool with_switch_faults = false;  ///< correlated whole-switch cuts/repairs
  std::size_t max_live = 200;   ///< force drains past this backlog
  /// Apply events to model 0 in bursts of 1-8 inside one DeferredSolves
  /// scope; the other models stay eager.
  bool deferred_bursts = false;
};

class Differential {
 public:
  Differential(const Topology* topo, std::uint64_t seed,
               const DifferentialOptions& opt)
      : topo_(topo), opt_(opt), rng_(seed) {
    for (std::size_t v = 0; v < topo_->vertex_count(); ++v) {
      if (topo_->vertex(v).kind == VertexKind::kSwitch) {
        switch_vertices_.push_back(v);
      }
    }
    BackgroundTrafficConfig bg;
    if (opt_.with_condition) {
      bg.mean_utilization = 0.3;
      bg.burst_utilization = 0.4;
      bg.burst_probability = 0.1;
      bg.resample_interval = 3.0;
    }
    for (std::size_t m = 0; m < 3; ++m) {
      // Each model gets its own condition model seeded identically, so all
      // three observe the same capacity series without sharing state.
      conds_.push_back(opt_.with_condition
                           ? std::make_unique<LinkConditionModel>(
                                 topo_, bg, Rng(seed * 7 + 1))
                           : nullptr);
      models_.push_back(
          std::make_unique<FlowModel>(topo_, conds_[m].get()));
    }
    models_[1]->set_naive_flow_solver(true);
    models_[2]->set_flow_solver_threads(4);
    if (opt_.deferred_bursts && conds_[0]) {
      // As the network service does: a capacity change inside a burst
      // first settles what the burst deferred.
      conds_[0]->set_before_change([this] { models_[0]->settle(); });
    }
  }

  void run() {
    for (std::size_t e = 0; e < opt_.events; ++e) {
      if (opt_.deferred_bursts) {
        run_burst();
        compare_next_completion();
        compare_link_loads();
      } else {
        step();
        if (e % 64 == 0) compare_link_loads();
      }
      compare_models();
      ASSERT_FALSE(::testing::Test::HasFatalFailure() ||
                   ::testing::Test::HasNonfatalFailure())
          << "solver divergence at event " << e;
    }
    if (opt_.deferred_bursts) {
      // The bursts really were coalesced (the eager model runs at least
      // one solve per event; model 2 is the eager incremental one).
      EXPECT_LT(models_[0]->solves(), models_[2]->solves());
    }
  }

 private:
  void advance_conditions(Seconds t) {
    for (auto& cond : conds_) {
      if (cond) cond->advance_to(t);
    }
  }

  void run_burst() {
    now_ += rng_.uniform(0.0, 0.05);
    advance_conditions(now_);
    // Starts and cancels inside the burst share its instant, like the
    // transfers a completion callback starts; completions move the clock.
    const FlowModel::DeferredSolves scope(*models_[0]);
    const std::size_t events = 1 + rng_.index(8);
    for (std::size_t k = 0; k < events; ++k) {
      step();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void step() {
    const double roll = rng_.uniform(0.0, 1.0);
    if (live_.empty()) {
      start_flow();
    } else if (live_.size() >= opt_.max_live || (roll >= 0.45 && roll < 0.8)) {
      run_to_next_completion();
    } else if (roll < 0.45) {
      start_flow();
    } else if (roll < 0.93) {
      cancel_flow();
    } else if (opt_.with_faults && roll < 0.97) {
      toggle_fault();
    } else if (opt_.with_switch_faults && roll < 0.985) {
      toggle_switch_fault();
    } else {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void start_flow() {
    if (!opt_.deferred_bursts) {
      now_ += rng_.uniform(0.0, 0.05);
      advance_conditions(now_);
    }
    const NodeId src(rng_.index(topo_->host_count()));
    NodeId dst(rng_.index(topo_->host_count()));
    if (dst == src) dst = NodeId((src.value() + 1) % topo_->host_count());
    const Bytes size = rng_.uniform(0.01, 1.0) * kGb;
    const BytesPerSec cap =
        rng_.bernoulli(0.3) ? rng_.uniform(0.02, 0.6) * kGb : 1e18;
    FlowId id{};
    for (std::size_t m = 0; m < 3; ++m) {
      const FlowId got = models_[m]->start(src, dst, size, now_, cap);
      if (m == 0) {
        id = got;
      } else {
        ASSERT_EQ(got.value(), id.value());
      }
    }
    live_.push_back(id);
    expect_deferred();
    collect_all();
  }

  /// A flow event inside a burst leaves model 0's solve pending.
  void expect_deferred() {
    if (models_[0]->solves_deferred()) {
      ASSERT_TRUE(models_[0]->solve_pending());
    }
  }

  void cancel_flow() {
    const std::size_t pick = rng_.index(live_.size());
    const FlowId id = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    if (!opt_.deferred_bursts) {
      now_ += rng_.uniform(0.0, 0.02);
      advance_conditions(now_);
    }
    for (auto& fm : models_) fm->cancel(id, now_);
    expect_deferred();
    collect_all();
  }

  /// Bitwise-equal next completion on every model not inside a burst
  /// (those are compared when it closes); returns the naive model's, which
  /// never defers.
  std::optional<std::pair<Seconds, FlowId>> compare_next_completion() {
    const auto next = models_[1]->next_completion();
    for (const std::size_t m : {0, 2}) {
      if (models_[m]->solves_deferred()) continue;
      const auto other = models_[m]->next_completion();
      EXPECT_EQ(other.has_value(), next.has_value());
      if (next && other) {
        EXPECT_EQ(other->first, next->first);  // bitwise-equal ETA
        EXPECT_EQ(other->second.value(), next->second.value());
      }
    }
    return next;
  }

  void run_to_next_completion() {
    const auto next = compare_next_completion();
    ASSERT_FALSE(::testing::Test::HasNonfatalFailure());
    // All live flows may be stalled on cut links (no ETA): idle forward.
    now_ = next ? std::max(now_, next->first) + 1e-9 : now_ + 1.0;
    advance_conditions(now_);
    for (auto& fm : models_) fm->advance_to(now_);
    collect_all();
  }

  void toggle_fault() {
    const LinkId link(rng_.index(topo_->link_count()));
    const bool cut = !conds_[0]->link_faulted(link);
    for (auto& cond : conds_) cond->set_link_fault(link, cut);
    // Half the time rates are re-solved immediately (the NetworkService
    // pattern); otherwise the epoch tracker must catch the change at the
    // next flow event on its own.
    if (rng_.bernoulli(0.5)) {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void toggle_switch_fault() {
    // Correlated whole-switch event, mirroring NetworkFaultInjector: set
    // EVERY link adjacent to a sampled switch to the new state in one
    // batch, regardless of each link's prior state (some may already be
    // down from single-link cuts), then re-solve once. The incremental
    // solver must absorb the multi-link epoch bump exactly like the naive
    // full scan does.
    const std::size_t v =
        switch_vertices_[rng_.index(switch_vertices_.size())];
    const bool cut = rng_.bernoulli(0.5);
    for (const auto& adj : topo_->neighbors(v)) {
      for (auto& cond : conds_) cond->set_link_fault(adj.link, cut);
    }
    if (rng_.bernoulli(0.5)) {
      for (auto& fm : models_) fm->recompute_rates();
    }
  }

  void collect_all() {
    const std::vector<FlowId> done = models_[0]->collect_completed();
    for (std::size_t m = 1; m < 3; ++m) {
      const std::vector<FlowId> other = models_[m]->collect_completed();
      ASSERT_EQ(other.size(), done.size());
      for (std::size_t j = 0; j < done.size(); ++j) {
        ASSERT_EQ(other[j].value(), done[j].value());  // identical order
      }
    }
    for (const FlowId id : done) {
      for (std::size_t j = 0; j < live_.size(); ++j) {
        if (live_[j] == id) {
          live_[j] = live_.back();
          live_.pop_back();
          break;
        }
      }
    }
  }

  void compare_models() {
    ASSERT_EQ(models_[1]->active_count(), models_[0]->active_count());
    ASSERT_EQ(models_[2]->active_count(), models_[0]->active_count());
    ASSERT_EQ(models_[1]->stalled_count(), models_[0]->stalled_count());
    ASSERT_EQ(models_[2]->stalled_count(), models_[0]->stalled_count());
    for (const FlowId id : live_) {
      const FlowInfo& a = models_[0]->info(id);
      for (std::size_t m = 1; m < 3; ++m) {
        const FlowInfo& b = models_[m]->info(id);
        // EXPECT_EQ on doubles is exact equality: byte-identity, not an
        // epsilon comparison.
        ASSERT_EQ(b.rate, a.rate) << "flow " << id.value() << " model " << m;
        ASSERT_EQ(b.remaining, a.remaining) << "flow " << id.value();
        ASSERT_EQ(b.stalled, a.stalled) << "flow " << id.value();
        ASSERT_EQ(b.active, a.active) << "flow " << id.value();
      }
    }
  }

  void compare_link_loads() {
    for (std::size_t d = 0; d < topo_->link_count() * 2; ++d) {
      const BytesPerSec load = models_[0]->directed_link_load(d);
      ASSERT_EQ(models_[1]->directed_link_load(d), load) << "link " << d;
      ASSERT_EQ(models_[2]->directed_link_load(d), load) << "link " << d;
      ASSERT_EQ(models_[1]->flows_on(d), models_[0]->flows_on(d));
      ASSERT_EQ(models_[2]->flows_on(d), models_[0]->flows_on(d));
    }
  }

  const Topology* topo_;
  DifferentialOptions opt_;
  Rng rng_;
  Seconds now_ = 0.0;
  std::vector<std::unique_ptr<LinkConditionModel>> conds_;
  std::vector<std::unique_ptr<FlowModel>> models_;
  std::vector<FlowId> live_;
  std::vector<std::size_t> switch_vertices_;
};

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, CleanFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 2500;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, CleanFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1200;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, BackgroundTrafficFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, FaultsFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  opt.with_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, FaultsFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 800;
  opt.with_condition = true;
  opt.with_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, SwitchFaultsFatTreeK4) {
  // Correlated switch-level cuts layered over single-link cuts: the batch
  // multi-link state flips are the fault pattern NetworkFaultInjector
  // produces, and the three solvers must stay byte-identical through them.
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 1500;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.with_switch_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, SwitchFaultsFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 800;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.with_switch_faults = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, DeferredBurstsFatTreeK4) {
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 600;
  opt.deferred_bursts = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, DeferredBurstsFaultsFatTreeK4) {
  // Cut links park flows mid-burst and resamples move the condition epoch
  // inside the scope: closing it must take the full-solve path then.
  const Topology topo = make_fat_tree({4, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 600;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.with_switch_faults = true;
  opt.deferred_bursts = true;
  Differential(&topo, GetParam(), opt).run();
}

TEST_P(FlowDifferential, DeferredBurstsFaultsFatTreeK8) {
  const Topology topo = make_fat_tree({8, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 300;
  opt.with_condition = true;
  opt.with_faults = true;
  opt.deferred_bursts = true;
  Differential(&topo, GetParam(), opt).run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential, ::testing::Values(1, 2, 7));

// The 1k-host case: one seed, fewer events (the naive reference scans all
// 6144 directed links per filling round, so this is the expensive one).
TEST(FlowDifferentialLarge, CleanFatTreeK16) {
  const Topology topo = make_fat_tree({16, units::Gbps(1)});
  DifferentialOptions opt;
  opt.events = 250;
  Differential(&topo, 11, opt).run();
}

}  // namespace
}  // namespace mrs::net
