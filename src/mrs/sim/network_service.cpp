#include "mrs/sim/network_service.hpp"

#include <utility>
#include <vector>

namespace mrs::sim {

NetworkService::NetworkService(Simulation* simulation,
                               const net::Topology* topo,
                               net::LinkConditionModel* cond)
    : simulation_(simulation), cond_(cond), flows_(topo, cond) {
  MRS_REQUIRE(simulation_ != nullptr);
  // A callback may move the condition model at the dispatch's instant (a
  // condition-aware distance query crossing a resample): solve what the
  // dispatch deferred so far at the capacities it was made under.
  if (cond_ != nullptr) cond_->set_before_change([this] { flows_.settle(); });
}

NetworkService::~NetworkService() {
  if (cond_ != nullptr) cond_->set_before_change({});
}

template <typename Change>
void NetworkService::sync(Change&& change) {
  // Called from a completion callback: the dispatch below already holds the
  // deferral scope and solves and re-arms once, after its last callback.
  if (flows_.solves_deferred()) {
    change();
    return;
  }
  {
    const net::FlowModel::DeferredSolves batch(flows_);
    change();
    flows_.advance_to(simulation_->now());
    // Dispatch in a loop: a completion callback may start new transfers;
    // collecting before dispatching keeps each callback firing exactly
    // once.
    for (;;) {
      const std::vector<FlowId> completed = flows_.collect_completed();
      if (completed.empty()) break;
      for (FlowId id : completed) {
        auto it = callbacks_.find(id);
        if (it == callbacks_.end()) continue;  // cancelled mid-flight
        TransferCallback cb = std::move(it->second);
        callbacks_.erase(it);
        cb();
      }
    }
  }
  arm_completion_event();
}

void NetworkService::resample_conditions() {
  sync([this] {
    if (cond_ != nullptr) cond_->advance_to(simulation_->now());
    flows_.advance_to(simulation_->now());
    flows_.recompute_rates();
  });
}

void NetworkService::arm_condition_tick() {
  if (cond_ == nullptr || condition_tick_armed_) return;
  if (flows_.active_count() == 0) return;
  // Keep the background-traffic process and flow rates in lock-step with
  // simulation time while transfers are in flight. The tick self-cancels
  // when the network idles so the event queue can drain.
  constexpr Seconds kTick = 5.0;
  condition_tick_armed_ = true;
  simulation_->schedule_in(kTick, [this] {
    condition_tick_armed_ = false;
    if (flows_.active_count() == 0) return;
    resample_conditions();
    arm_condition_tick();
  });
}

FlowId NetworkService::transfer(NodeId src, NodeId dst, Bytes size,
                                TransferCallback done, BytesPerSec rate_cap) {
  MRS_REQUIRE(done != nullptr);
  FlowId id;
  sync([&] {
    id = flows_.start(src, dst, size, simulation_->now(), rate_cap);
    callbacks_.emplace(id, std::move(done));
  });
  arm_condition_tick();
  return id;
}

void NetworkService::on_condition_changed() {
  resample_conditions();
  arm_condition_tick();
}

void NetworkService::cancel(FlowId id) {
  sync([&] {
    flows_.cancel(id, simulation_->now());
    callbacks_.erase(id);
  });
}

void NetworkService::arm_completion_event() {
  simulation_->cancel(completion_event_);
  completion_event_ = EventHandle{};
  const auto next = flows_.next_completion();
  if (!next) return;
  completion_event_ =
      simulation_->schedule_at(next->first, [this] { sync([] {}); });
}

}  // namespace mrs::sim
