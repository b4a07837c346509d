// The paper's distance matrix H (Table I): h_ab = hops between data nodes
// D_a and D_b, or — in the network-condition variant of Sec. II-B-3 — the
// inverse of the path transmission rate.
//
// DistanceProvider is the polymorphic source the cost model consumes, so
// schedulers can run off static hops (computed by the topology), a live
// link monitor, or a custom source (the paper's worked example in Fig. 2).
// DistanceMatrix is the dense snapshot the rate-based provider rebuilds
// once per background-traffic resample epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mrs/common/ids.hpp"
#include "mrs/net/flow.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {

/// Dense symmetric-by-construction matrix of node-to-node distances.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  DistanceMatrix(std::size_t nodes, double fill = 0.0);

  /// Inverse-transmission-rate matrix at the link monitor's current time
  /// (bottleneck form, Sec. II-B-3).
  static DistanceMatrix from_inverse_rates(const LinkConditionModel& cond);

  /// Per-link-weighted variant (keeps hop sensitivity under congestion).
  static DistanceMatrix from_weighted_paths(const LinkConditionModel& cond);

  [[nodiscard]] double at(NodeId a, NodeId b) const {
    MRS_REQUIRE(a.value() < nodes_ && b.value() < nodes_);
    return values_[a.value() * nodes_ + b.value()];
  }
  void set(NodeId a, NodeId b, double v) {
    MRS_REQUIRE(a.value() < nodes_ && b.value() < nodes_);
    values_[a.value() * nodes_ + b.value()] = v;
  }
  /// Sets both (a,b) and (b,a).
  void set_symmetric(NodeId a, NodeId b, double v) {
    set(a, b, v);
    set(b, a, v);
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_; }

 private:
  std::size_t nodes_ = 0;
  std::vector<double> values_;
};

/// Source of distances for the cost model. Implementations may be static
/// (hops) or time-varying (link monitor).
class DistanceProvider {
 public:
  virtual ~DistanceProvider() = default;
  /// Distance h_ab at simulation time `now`.
  [[nodiscard]] virtual double distance(NodeId a, NodeId b,
                                        Seconds now) const = 0;
  /// True when distances never change over time; consumers may then cache
  /// derived quantities (e.g. per-task minimum replica distances).
  [[nodiscard]] virtual bool is_static() const { return false; }
  /// Column sums of H over a candidate set, the numerators of the cost
  /// model's average over free nodes (Eq. 5's C_ave): out[s] = the sum, in
  /// candidate order from 0.0, of distance(sources[s], c, now) over every
  /// candidate c. The default runs that loop; an override must return the
  /// same bits.
  virtual void column_sums(std::span<const NodeId> sources,
                           std::span<const NodeId> candidates, Seconds now,
                           std::span<double> out) const;
};

/// Static hop-count distances (the paper's default H), read from the
/// topology. `topo` must outlive the provider.
///
/// Not thread-safe (column_sums() keeps tallies between calls).
class HopDistanceProvider final : public DistanceProvider {
 public:
  explicit HopDistanceProvider(const Topology& topo) : topo_(&topo) {}

  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds /*now*/) const override {
    return static_cast<double>(topo_->hops(a, b));
  }
  [[nodiscard]] bool is_static() const override { return true; }

  /// h(s, c) = 6 - 2[same pod] - 2[same rack] - 2[s == c] (Topology::hops),
  /// so a column sum is 6|C| - 2|C_pod(s)| - 2|C_rack(s)| - 2|C_host(s)|,
  /// read from per-pod, per-rack and per-host candidate tallies in
  /// O(|sources| + |candidates|). Computed in integers: every partial sum
  /// of the default loop is an integer below 2^53, so the bits are equal.
  void column_sums(std::span<const NodeId> sources,
                   std::span<const NodeId> candidates, Seconds now,
                   std::span<double> out) const override;

 private:
  const Topology* topo_;
  /// Candidates per host, rack and pod; all zero between calls.
  mutable std::vector<std::uint32_t> host_hits_;
  mutable std::vector<std::uint32_t> rack_hits_;
  mutable std::vector<std::uint32_t> pod_hits_;
};

/// Live network-condition distances (Sec. II-B-3): advances the link
/// monitor to the query time and serves lookups from a dense matrix that is
/// rebuilt once per background-traffic resample epoch.
///
/// Not thread-safe (one provider per simulation, like every other
/// simulation component).
class RateDistanceProvider final : public DistanceProvider {
 public:
  enum class Form { kBottleneck, kPerLinkSum };

  RateDistanceProvider(LinkConditionModel* cond, Form form)
      : cond_(cond), form_(form) {
    MRS_REQUIRE(cond_ != nullptr);
  }

  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds now) const override {
    cond_->advance_to(now);
    if (cond_->resample_epoch() != cached_epoch_ || cache_.node_count() == 0) {
      cache_ = form_ == Form::kBottleneck
                   ? DistanceMatrix::from_inverse_rates(*cond_)
                   : DistanceMatrix::from_weighted_paths(*cond_);
      cached_epoch_ = cond_->resample_epoch();
    }
    return cache_.at(a, b);
  }

 private:
  LinkConditionModel* cond_;
  Form form_;
  mutable DistanceMatrix cache_;
  mutable std::uint64_t cached_epoch_ = ~0ull;
};

/// Monitored-path distances: what an active path probe (Choreo-style, the
/// paper's [16]) would report *right now*, including foreground transfers.
/// Each link on the path contributes the inverse of the rate a new flow
/// would get there: effective capacity (after background cross-traffic)
/// divided equally among the flows already on the link plus the probe.
/// An idle reference-speed hop costs 1.0, like a hop count.
class LoadAwareDistanceProvider final : public DistanceProvider {
 public:
  /// `cond` may be null (no background traffic model).
  LoadAwareDistanceProvider(const Topology* topo, const FlowModel* flows,
                            LinkConditionModel* cond);

  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds now) const override;

 private:
  const Topology* topo_;
  const FlowModel* flows_;
  LinkConditionModel* cond_;
  double reference_rate_;
};

}  // namespace mrs::net
