// Shared flow-model check: a solved model's rates against the max-min
// conditions themselves, independent of any other solver.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::testing {

/// Checks `model`'s rates for the active flows among `live` on `topo`,
/// with each directed link's effective capacity read from `cond` (nominal
/// capacity when null), as the model reads it:
///  - a flow is parked (stalled) iff its route crosses a cut link, and a
///    parked flow runs at rate 0, so it adds no load;
///  - each directed link's rate sum is within its effective capacity, and
///    directed_link_load returns that sum bit for bit (summed in ascending
///    flow order, as the model sums it);
///  - every other flow is at its cap, or crosses a saturated link on which
///    no flow holds a larger rate (max-min optimality).
/// The model must have no solve pending.
inline void expect_max_min_fair(const net::FlowModel& model,
                                const net::Topology& topo,
                                const net::LinkConditionModel* cond,
                                std::vector<FlowId> live) {
  constexpr double kTol = 1e-9;
  const std::size_t directed = topo.link_count() * 2;
  std::vector<double> capacity(directed);
  for (std::size_t d = 0; d < directed; ++d) {
    const net::DirectedLink dl{LinkId(d / 2), d % 2 != 0};
    capacity[d] = cond != nullptr ? cond->effective_capacity(dl)
                                  : topo.link(dl.link).capacity;
  }
  std::sort(live.begin(), live.end());
  std::vector<double> load(directed, 0.0);
  std::vector<double> max_rate(directed, 0.0);
  for (const FlowId id : live) {
    const net::FlowInfo& f = model.info(id);
    if (!f.active) continue;  // completed, not yet collected
    bool crosses_cut = false;
    for (const net::DirectedLink& dl : topo.path(f.src, f.dst)) {
      const std::size_t d = dl.directed_index();
      crosses_cut = crosses_cut || capacity[d] <= 0.0;
      load[d] += f.rate;
      max_rate[d] = std::max(max_rate[d], f.rate);
    }
    EXPECT_EQ(f.stalled, crosses_cut) << "flow " << id.value();
    if (f.stalled) {
      EXPECT_EQ(f.rate, 0.0) << "parked flow " << id.value();
    }
  }
  for (std::size_t d = 0; d < directed; ++d) {
    EXPECT_LE(load[d], capacity[d] * (1.0 + kTol)) << "link " << d;
    EXPECT_EQ(model.directed_link_load(d), load[d]) << "link " << d;
  }
  for (const FlowId id : live) {
    const net::FlowInfo& f = model.info(id);
    if (!f.active || f.stalled || f.rate >= f.rate_cap * (1.0 - kTol)) {
      continue;
    }
    bool bottlenecked = false;
    for (const net::DirectedLink& dl : topo.path(f.src, f.dst)) {
      const std::size_t d = dl.directed_index();
      if (load[d] >= capacity[d] * (1.0 - kTol) &&
          f.rate >= max_rate[d] * (1.0 - kTol)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "flow " << id.value() << " rate " << f.rate
        << " is neither capped nor bottlenecked (not max-min optimal)";
  }
}

}  // namespace mrs::testing
