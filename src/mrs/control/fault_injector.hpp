// Deterministic network chaos (ROADMAP "reconfigurable and degraded
// networks"): drives the link-fault and surge machinery of the flow layer
// with three independent event families, each on its own labeled RNG
// sub-stream so enabling one family never shifts another's schedule:
//
//   - independent single-link cuts with jittered repair (exponential
//     inter-arrival, mirroring FailureInjectorConfig),
//   - correlated switch-level faults that cut every link on a sampled
//     ToR/aggregation/core switch at once, and
//   - background-traffic surge episodes that temporarily raise the
//     utilization of one rack's uplinks.
//
// Every mutation goes through LinkConditionModel (which bumps the capacity
// epoch) followed by NetworkService::on_condition_changed(), so in-flight
// flows park/resume immediately and condition-mode distance caches refresh.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/control/arm_horizon.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/telemetry/registry.hpp"

namespace mrs::control {

struct NetworkFaultInjectorConfig {
  /// Mean time between independent single-link cuts (exponential);
  /// <= 0 disables the family.
  Seconds link_mtbf = 0.0;
  Seconds link_repair_time = 60.0;
  /// Mean time between correlated switch-level faults; <= 0 disables.
  Seconds switch_mtbf = 0.0;
  Seconds switch_repair_time = 120.0;
  /// Relative jitter on each repair: the realized time is drawn uniformly
  /// from repair * [1 - jitter, 1 + jitter]. 0 keeps repairs fixed.
  double repair_jitter = 0.0;
  /// Mean time between surge episodes; <= 0 disables.
  Seconds surge_mtbf = 0.0;
  Seconds surge_duration = 120.0;
  /// Extra utilization added to the sampled rack's uplinks for the episode
  /// (the combined utilization still respects the model's [0, 0.95] clamp).
  double surge_utilization = 0.5;
  /// Keep arming at least until this sim time (see ArmHorizonGate).
  Seconds arm_horizon = 0.0;

  [[nodiscard]] bool enabled() const {
    return link_mtbf > 0.0 || switch_mtbf > 0.0 || surge_mtbf > 0.0;
  }
};

class NetworkFaultInjector {
 public:
  /// `quiesced` reports whether the driving workload has fully resolved
  /// (e.g. Engine::all_jobs_complete); null counts as always-quiesced.
  /// `service` and `cond` may be null only when the config is disabled.
  NetworkFaultInjector(sim::Simulation* simulation,
                       sim::NetworkService* service,
                       net::LinkConditionModel* cond,
                       const net::Topology* topo,
                       NetworkFaultInjectorConfig config, Rng rng,
                       std::function<bool()> quiesced);

  /// Cache counter/gauge pointers; call before start().
  void set_telemetry(telemetry::Registry* registry);

  /// Arm the first event of each enabled family (no-op when disabled).
  void start();

  [[nodiscard]] std::size_t links_cut() const { return links_cut_; }
  [[nodiscard]] std::size_t switch_events() const { return switch_events_; }
  [[nodiscard]] std::size_t surge_episodes() const { return surge_episodes_; }

 private:
  void fire_link_cut();
  void fire_switch_fault();
  void fire_surge();
  /// Refcounted cuts: a link held down by both a single-link cut and a
  /// switch fault stays down until the last holder repairs.
  void cut_link(LinkId link);
  void uncut_link(LinkId link);
  [[nodiscard]] Seconds jittered(Rng& rng, Seconds base);

  sim::Simulation* simulation_;
  sim::NetworkService* service_;
  net::LinkConditionModel* cond_;
  const net::Topology* topo_;
  NetworkFaultInjectorConfig config_;
  ArmHorizonGate gate_;
  Rng link_rng_;
  Rng switch_rng_;
  Rng surge_rng_;

  std::vector<std::uint32_t> cut_refs_;          ///< per link
  std::vector<std::size_t> switch_vertices_;     ///< vertex indices
  std::vector<std::vector<LinkId>> rack_uplinks_;  ///< per rack

  std::size_t links_cut_ = 0;
  std::size_t switch_events_ = 0;
  std::size_t surge_episodes_ = 0;
  std::size_t active_surges_ = 0;

  telemetry::Counter* links_cut_counter_ = nullptr;
  telemetry::Counter* switch_events_counter_ = nullptr;
  telemetry::Counter* surge_episodes_counter_ = nullptr;
  telemetry::Gauge* surge_active_gauge_ = nullptr;
};

}  // namespace mrs::control
