// Link condition monitoring (Sec. II-B-3 of the paper).
//
// The paper proposes replacing each hop-count entry h_ab of the distance
// matrix H with the inverse of the measured transmission rate of the a->b
// path, so that congested paths look "longer". This module models the
// cluster-side link monitor: per-link background utilization (cross traffic
// from other tenants) that evolves over time, plus path-rate queries that a
// scheduler can consume.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {

/// Configuration of the synthetic background-traffic process.
struct BackgroundTrafficConfig {
  double mean_utilization = 0.0;  ///< average fraction of capacity consumed
  double burst_utilization = 0.0; ///< extra utilization during a burst
  double burst_probability = 0.0; ///< chance a link is bursting per interval
  Seconds resample_interval = 30.0;
  /// Restrict congestion to uplinks (host links stay clean), mimicking
  /// shared-core contention which is the common case in practice.
  bool uplinks_only = true;
};

/// Tracks per-directed-link background utilization over time and answers
/// effective-capacity and path-rate queries.
///
/// Deterministic: all randomness comes from the Rng supplied at
/// construction; `advance_to` resamples utilizations on a fixed grid.
class LinkConditionModel {
 public:
  LinkConditionModel(const Topology* topo, BackgroundTrafficConfig cfg,
                     Rng rng);

  /// Advance the background process to simulation time `t` (idempotent for
  /// equal or earlier times).
  void advance_to(Seconds t);

  /// Capacity left for foreground traffic on a directed link at the current
  /// time. Never below 5% of nominal (links don't fully starve) — unless the
  /// link is faulted, in which case it is exactly 0 in both directions.
  [[nodiscard]] BytesPerSec effective_capacity(DirectedLink dl) const;

  /// Cut (or repair) a link: a faulted link has zero effective capacity in
  /// both directions until repaired. Bumps the resample epoch on every state
  /// change so consumers (FlowModel, cached distance matrices) know their
  /// derived state is stale; call FlowModel::recompute_rates() afterwards to
  /// park/resume flows immediately rather than at the next flow event.
  void set_link_fault(LinkId link, bool faulted);
  [[nodiscard]] bool link_faulted(LinkId link) const {
    return faulted_.at(link.value()) != 0;
  }
  [[nodiscard]] std::size_t faulted_link_count() const {
    return faulted_count_;
  }

  /// Temporarily raise the background utilization of a link beyond its
  /// drawn value (surge episodes): `delta` adds to both directions; a
  /// negative delta removes a previously added surge (floored at 0).
  /// The combined utilization is clamped to the documented [0, 0.95] range
  /// at query time, so a surge can never starve a link completely. RNG-free
  /// — the background-traffic stream is untouched, so removing a surge
  /// restores the exact utilization the resample grid would have produced —
  /// and epoch-bumping, so cached distance matrices and the flow model see
  /// the change.
  void add_link_surge(LinkId link, double delta);
  [[nodiscard]] std::size_t surged_link_count() const { return surged_count_; }

  /// Uncongested-equivalent transmission rate of the src->dst path: the
  /// minimum effective capacity along the route. Returns +inf for src==dst.
  [[nodiscard]] BytesPerSec path_rate(NodeId src, NodeId dst) const;

  /// The paper's "inverse of the transmission rate" distance, normalized so
  /// that an uncongested host->ToR->host path costs exactly 2.0 (the hop
  /// count it replaces): cost = hops-equivalent congestion-scaled length.
  /// Uses the bottleneck (minimum) rate of the path, as the paper states.
  [[nodiscard]] double inverse_rate_distance(NodeId src, NodeId dst) const;

  /// Per-link variant: sums the inverse effective rate of every link on the
  /// path (each uncongested reference-speed hop costs 1.0). Unlike the
  /// bottleneck form this keeps hop-count sensitivity, so two uncongested
  /// paths of different length still rank correctly.
  [[nodiscard]] double weighted_path_distance(NodeId src, NodeId dst) const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] double utilization(std::size_t directed_index) const {
    return utilization_.at(directed_index);
  }
  /// Number of resamples so far; consumers may cache derived matrices per
  /// epoch.
  [[nodiscard]] std::uint64_t resample_epoch() const { return epoch_; }

  /// Run `hook` right before every change of the effective capacities (a
  /// resample, a fault toggle, a surge). The network service settles its
  /// deferred flow solves here, so each is solved at the capacities of the
  /// instant it was made. One hook per model; an empty function clears it.
  void set_before_change(std::function<void()> hook);

 private:
  void resample();

  const Topology* topo_;
  BackgroundTrafficConfig cfg_;
  Rng rng_;
  Seconds now_ = 0.0;
  Seconds next_resample_ = 0.0;
  std::vector<double> utilization_;  ///< per directed link, in [0, 0.95]
  std::vector<double> surge_;        ///< per (undirected) link, >= 0
  std::vector<char> faulted_;        ///< per (undirected) link
  std::size_t faulted_count_ = 0;
  std::size_t surged_count_ = 0;
  std::uint64_t epoch_ = 0;
  std::function<void()> before_change_;
  double reference_rate_;            ///< min host-link capacity (for scaling)
};

}  // namespace mrs::net
