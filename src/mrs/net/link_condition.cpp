#include "mrs/net/link_condition.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace mrs::net {

namespace {
constexpr double kMaxUtilization = 0.95;
// Distance assigned to a path crossing a cut (zero-capacity) link: a large
// finite penalty rather than +inf so averaged cost matrices stay finite and
// such paths simply rank last.
constexpr double kCutPathDistance = 1e12;
}  // namespace

LinkConditionModel::LinkConditionModel(const Topology* topo,
                                       BackgroundTrafficConfig cfg, Rng rng)
    : topo_(topo),
      cfg_(cfg),
      rng_(std::move(rng)),
      utilization_(topo->link_count() * 2, 0.0),
      surge_(topo->link_count(), 0.0),
      faulted_(topo->link_count(), 0) {
  MRS_REQUIRE(topo_ != nullptr);
  MRS_REQUIRE(cfg_.mean_utilization >= 0.0 && cfg_.mean_utilization < 1.0);
  MRS_REQUIRE(cfg_.resample_interval > 0.0);

  reference_rate_ = std::numeric_limits<double>::max();
  for (std::size_t l = 0; l < topo_->link_count(); ++l) {
    const Link& link = topo_->link(LinkId(l));
    const bool host_link =
        topo_->vertex(link.a).kind == VertexKind::kHost ||
        topo_->vertex(link.b).kind == VertexKind::kHost;
    if (host_link) reference_rate_ = std::min(reference_rate_, link.capacity);
  }
  if (reference_rate_ == std::numeric_limits<double>::max()) {
    reference_rate_ = units::Gbps(1);
  }
  resample();
  next_resample_ = cfg_.resample_interval;
}

void LinkConditionModel::advance_to(Seconds t) {
  while (t >= next_resample_) {
    now_ = next_resample_;
    next_resample_ += cfg_.resample_interval;
    resample();
  }
  now_ = std::max(now_, t);
}

void LinkConditionModel::set_before_change(std::function<void()> hook) {
  MRS_REQUIRE(!hook || !before_change_);
  before_change_ = std::move(hook);
}

void LinkConditionModel::resample() {
  if (before_change_) before_change_();
  ++epoch_;
  // Every link draws from the stream regardless of fault or surge state:
  // repairing a link must not shift its neighbours' utilization series.
  for (std::size_t l = 0; l < topo_->link_count(); ++l) {
    const Link& link = topo_->link(LinkId(l));
    const bool host_link =
        topo_->vertex(link.a).kind == VertexKind::kHost ||
        topo_->vertex(link.b).kind == VertexKind::kHost;
    for (std::size_t dir = 0; dir < 2; ++dir) {
      double u = 0.0;
      if (!(cfg_.uplinks_only && host_link)) {
        u = cfg_.mean_utilization > 0.0
                ? rng_.uniform(0.0, 2.0 * cfg_.mean_utilization)
                : 0.0;
        if (cfg_.burst_probability > 0.0 &&
            rng_.bernoulli(cfg_.burst_probability)) {
          u += cfg_.burst_utilization;
        }
      }
      utilization_[2 * l + dir] = std::clamp(u, 0.0, kMaxUtilization);
    }
  }
}

void LinkConditionModel::set_link_fault(LinkId link, bool faulted) {
  char& state = faulted_.at(link.value());
  if ((state != 0) == faulted) return;
  if (before_change_) before_change_();
  state = faulted ? 1 : 0;
  if (faulted) {
    ++faulted_count_;
  } else {
    MRS_ASSERT(faulted_count_ > 0);
    --faulted_count_;
  }
  ++epoch_;  // derived capacities changed out-of-band of the resample grid
}

void LinkConditionModel::add_link_surge(LinkId link, double delta) {
  if (delta == 0.0) return;
  if (before_change_) before_change_();
  double& s = surge_.at(link.value());
  const bool was_surged = s > 0.0;
  s = std::max(0.0, s + delta);
  if (s < 1e-12) s = 0.0;  // float dust must not keep a link "surged"
  const bool surged = s > 0.0;
  if (was_surged != surged) surged_count_ += surged ? 1 : -1;
  ++epoch_;  // derived capacities changed out-of-band of the resample grid
}

BytesPerSec LinkConditionModel::effective_capacity(DirectedLink dl) const {
  if (faulted_[dl.link.value()] != 0) return 0.0;
  const Link& link = topo_->link(dl.link);
  // The surge overlay adds on top of the drawn utilization; the combined
  // value respects the same [0, kMaxUtilization] clamp as the draws, so a
  // surge can degrade a link to at most 5% of nominal, never cut it.
  const double u = std::clamp(
      utilization_[dl.directed_index()] + surge_[dl.link.value()], 0.0,
      kMaxUtilization);
  return link.capacity * (1.0 - u);
}

BytesPerSec LinkConditionModel::path_rate(NodeId src, NodeId dst) const {
  if (src == dst) return std::numeric_limits<double>::infinity();
  BytesPerSec rate = std::numeric_limits<double>::max();
  for (const DirectedLink& dl : topo_->path(src, dst)) {
    rate = std::min(rate, effective_capacity(dl));
  }
  return rate;
}

double LinkConditionModel::inverse_rate_distance(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  const BytesPerSec rate = path_rate(src, dst);
  if (rate <= 0.0) return kCutPathDistance;  // path crosses a faulted link
  // Normalize: an uncongested two-hop rack-local path (bottleneck =
  // reference host link) costs 2.0, matching the hop count it replaces.
  return 2.0 * reference_rate_ / rate;
}

double LinkConditionModel::weighted_path_distance(NodeId src,
                                                  NodeId dst) const {
  if (src == dst) return 0.0;
  double cost = 0.0;
  for (const DirectedLink& dl : topo_->path(src, dst)) {
    const BytesPerSec cap = effective_capacity(dl);
    if (cap <= 0.0) return kCutPathDistance;  // faulted hop: rank last
    cost += reference_rate_ / cap;
  }
  return cost;
}

}  // namespace mrs::net
