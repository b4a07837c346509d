// Couples the flow-level network model to the discrete-event engine.
//
// Callers start transfers and get a completion callback; the service keeps
// exactly one pending "next flow completes" event in the simulation,
// re-armed once per dispatch: every entry point (a transfer, a cancel, a
// completion, a condition change or tick) runs inside one FlowModel
// deferral scope that also covers the completion callbacks it fires, so the
// transfers those callbacks start and cancel are solved together with the
// completions, once, and the event is armed after the last callback. The
// service also periodically re-applies background-traffic resamples.
#pragma once

#include <functional>
#include <limits>
#include <unordered_map>

#include "mrs/common/ids.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/sim/simulation.hpp"

namespace mrs::sim {

class NetworkService {
 public:
  using TransferCallback = std::function<void()>;

  /// `cond` may be null (clean network at nominal capacity). When present,
  /// the service re-samples background traffic on the model's interval and
  /// recomputes flow rates.
  NetworkService(Simulation* simulation, const net::Topology* topo,
                 net::LinkConditionModel* cond = nullptr);
  ~NetworkService();
  NetworkService(const NetworkService&) = delete;
  NetworkService& operator=(const NetworkService&) = delete;

  /// Start a transfer; `done` fires (once) when the last byte arrives.
  /// From inside a completion callback, the rates are solved and the
  /// completion event re-armed when that callback's dispatch ends.
  /// Requires src != dst — local reads are not network transfers.
  /// `rate_cap`, when finite, bounds the flow's rate (application-limited
  /// streams, e.g. a map task reading input only as fast as it computes).
  FlowId transfer(NodeId src, NodeId dst, Bytes size, TransferCallback done,
                  BytesPerSec rate_cap =
                      std::numeric_limits<BytesPerSec>::infinity());

  /// Abort an in-flight transfer; its callback will not fire. Solved like
  /// transfer().
  void cancel(FlowId id);

  /// Out-of-band link-condition change (fault injection, surge episodes):
  /// advance the condition model and flows to sim-now, recompute rates so
  /// flows crossing a cut park (or resume after repair) immediately rather
  /// than at the next flow event, and dispatch any resulting completions.
  void on_condition_changed();

  [[nodiscard]] const net::FlowModel& flows() const { return flows_; }
  [[nodiscard]] std::size_t active_transfers() const {
    return flows_.active_count();
  }

  /// Select the reference full-scan flow solver (see
  /// FlowModel::set_naive_flow_solver). Set before the first transfer.
  void set_naive_flow_solver(bool naive) {
    flows_.set_naive_flow_solver(naive);
  }
  /// Worker threads for full flow recomputations (deterministic; see
  /// FlowModel::set_flow_solver_threads).
  void set_flow_solver_threads(std::size_t n) {
    flows_.set_flow_solver_threads(n);
  }

 private:
  /// Run `change` and then advance the model to sim-now and dispatch
  /// completions, all in one deferral scope; close it (one solve) and
  /// re-arm the completion event. Inside a running dispatch, just runs
  /// `change`.
  template <typename Change>
  void sync(Change&& change);
  /// Advance the condition model and flows to sim-now and re-solve the
  /// whole network (then dispatch, via sync).
  void resample_conditions();
  void arm_completion_event();
  /// Keep a background-resample tick armed while flows are active; the tick
  /// self-cancels when the network goes idle so the event queue can drain.
  void arm_condition_tick();

  Simulation* simulation_;
  net::LinkConditionModel* cond_;
  net::FlowModel flows_;
  std::unordered_map<FlowId, TransferCallback> callbacks_;
  EventHandle completion_event_;
  bool condition_tick_armed_ = false;
};

}  // namespace mrs::sim
