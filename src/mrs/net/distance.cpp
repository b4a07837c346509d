#include "mrs/net/distance.hpp"

#include <algorithm>
#include <limits>

namespace mrs::net {

DistanceMatrix::DistanceMatrix(std::size_t nodes, double fill)
    : nodes_(nodes), values_(nodes * nodes, fill) {}

DistanceMatrix DistanceMatrix::from_inverse_rates(
    const LinkConditionModel& cond) {
  const std::size_t n = cond.topology().host_count();
  DistanceMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      m.set(NodeId(a), NodeId(b),
            cond.inverse_rate_distance(NodeId(a), NodeId(b)));
    }
  }
  return m;
}

DistanceMatrix DistanceMatrix::from_weighted_paths(
    const LinkConditionModel& cond) {
  const std::size_t n = cond.topology().host_count();
  DistanceMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      m.set(NodeId(a), NodeId(b),
            cond.weighted_path_distance(NodeId(a), NodeId(b)));
    }
  }
  return m;
}

void DistanceProvider::column_sums(std::span<const NodeId> sources,
                                   std::span<const NodeId> candidates,
                                   Seconds now, std::span<double> out) const {
  MRS_REQUIRE(out.size() == sources.size());
  std::fill(out.begin(), out.end(), 0.0);
  for (const NodeId c : candidates) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      out[s] += distance(sources[s], c, now);
    }
  }
}

void HopDistanceProvider::column_sums(std::span<const NodeId> sources,
                                      std::span<const NodeId> candidates,
                                      Seconds /*now*/,
                                      std::span<double> out) const {
  MRS_REQUIRE(out.size() == sources.size());
  if (host_hits_.empty()) {
    host_hits_.assign(topo_->host_count(), 0);
    rack_hits_.assign(topo_->rack_count(), 0);
    pod_hits_.assign(topo_->pod_count(), 0);
  }
  for (const NodeId c : candidates) {
    ++host_hits_[c.value()];
    ++rack_hits_[topo_->rack_of(c).value()];
    ++pod_hits_[topo_->pod_of(c)];
  }
  const auto all = static_cast<std::int64_t>(candidates.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const NodeId n = sources[s];
    const std::int64_t near = std::int64_t{pod_hits_[topo_->pod_of(n)]} +
                              rack_hits_[topo_->rack_of(n).value()] +
                              host_hits_[n.value()];
    out[s] = static_cast<double>(6 * all - 2 * near);
  }
  for (const NodeId c : candidates) {
    --host_hits_[c.value()];
    --rack_hits_[topo_->rack_of(c).value()];
    --pod_hits_[topo_->pod_of(c)];
  }
}

LoadAwareDistanceProvider::LoadAwareDistanceProvider(
    const Topology* topo, const FlowModel* flows, LinkConditionModel* cond)
    : topo_(topo), flows_(flows), cond_(cond) {
  MRS_REQUIRE(topo_ != nullptr && flows_ != nullptr);
  reference_rate_ = std::numeric_limits<double>::max();
  for (std::size_t l = 0; l < topo_->link_count(); ++l) {
    const Link& link = topo_->link(LinkId(l));
    const bool host_link = topo_->vertex(link.a).kind == VertexKind::kHost ||
                           topo_->vertex(link.b).kind == VertexKind::kHost;
    if (host_link) reference_rate_ = std::min(reference_rate_, link.capacity);
  }
  if (reference_rate_ == std::numeric_limits<double>::max()) {
    reference_rate_ = units::Gbps(1);
  }
}

double LoadAwareDistanceProvider::distance(NodeId a, NodeId b,
                                           Seconds now) const {
  if (a == b) return 0.0;
  if (cond_ != nullptr) cond_->advance_to(now);
  double cost = 0.0;
  for (const DirectedLink& dl : topo_->path(a, b)) {
    const BytesPerSec cap = cond_ != nullptr
                                ? cond_->effective_capacity(dl)
                                : topo_->link(dl.link).capacity;
    const double sharers =
        static_cast<double>(flows_->flows_on(dl.directed_index()) + 1);
    cost += reference_rate_ * sharers / cap;
  }
  return cost;
}

}  // namespace mrs::net
