#include "mrs/net/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace mrs::net {

namespace {
// A flow is complete when fewer than this many bytes remain; guards against
// floating-point residue after rate integration.
constexpr Bytes kCompletionEpsilon = 1e-3;
constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();
}  // namespace

FlowModel::FlowModel(const Topology* topo, const LinkConditionModel* cond)
    : topo_(topo), cond_(cond) {
  MRS_REQUIRE(topo_ != nullptr);
  const std::size_t directed_links = topo_->link_count() * 2;
  // Hops and region slots store directed indices as 32-bit values.
  MRS_REQUIRE(directed_links <= std::numeric_limits<std::uint32_t>::max());
  link_flows_.assign(directed_links, {});
  if (cond_ != nullptr) cond_epoch_seen_ = cond_->resample_epoch();
}

BytesPerSec FlowModel::capacity_of(std::size_t directed_index) const {
  const LinkId link(directed_index / 2);
  if (cond_ != nullptr) {
    return cond_->effective_capacity(
        DirectedLink{link, (directed_index % 2) != 0});
  }
  return topo_->link(link).capacity;
}

void FlowModel::add_to_links(std::size_t index,
                             std::span<const DirectedLink> path) {
  auto& hops = hops_[index];
  hops.reserve(path.size());
  for (const DirectedLink& dl : path) {
    const std::size_t d = dl.directed_index();
    hops.push_back({static_cast<std::uint32_t>(d), 0});
    MRS_ASSERT(link_flows_[d].empty() || link_flows_[d].back() < index);
    link_flows_[d].push_back(static_cast<std::uint32_t>(index));
  }
}

void FlowModel::remove_from_links(std::size_t index) {
  auto& hops = hops_[index];
  for (const Hop& h : hops) {
    auto& list = link_flows_[h.link];
    const auto it = std::lower_bound(list.begin(), list.end(), index);
    MRS_ASSERT(it != list.end() && *it == index);
    list.erase(it);
  }
  // Reclaim the hop storage: the flow never becomes active again.
  std::vector<Hop>().swap(hops);
}

void FlowModel::deactivate(std::size_t index) {
  FlowInfo& f = flows_[index];
  MRS_ASSERT(f.active);
  f.active = false;
  f.rate = 0.0;
  if (f.stalled) {
    f.stalled = false;
    MRS_ASSERT(stalled_count_ > 0);
    --stalled_count_;
  }
  // Swap-remove from the active list so per-event work is O(active flows).
  const std::size_t pos = active_pos_[index];
  MRS_ASSERT(pos != kNoPos);
  const std::size_t last = active_list_.back();
  active_list_[pos] = last;
  active_pos_[last] = pos;
  active_list_.pop_back();
  active_pos_[index] = kNoPos;
  remove_from_links(index);
}

FlowId FlowModel::start(NodeId src, NodeId dst, Bytes size, Seconds now,
                        BytesPerSec rate_cap) {
  MRS_REQUIRE(src != dst);
  MRS_REQUIRE(size > 0.0);
  MRS_REQUIRE(rate_cap > 0.0);
  advance_to(now);
  const std::size_t index = flows_.size();
  // Per-link lists store flow indices as 32-bit values.
  MRS_REQUIRE(index < std::numeric_limits<std::uint32_t>::max());
  const FlowId id(index);
  flows_.push_back(
      {src, dst, size, size, now, 0.0, rate_cap, true, false});
  const Route path = topo_->path(src, dst);
  MRS_ASSERT(!path.empty());
  hops_.emplace_back();
  flow_seen_.push_back(0);
  active_pos_.push_back(active_list_.size());
  active_list_.push_back(index);
  add_to_links(index, path.links());
  add_seeds(index);
  if (!deferring_) settle();
  return id;
}

void FlowModel::cancel(FlowId id, Seconds now) {
  advance_to(now);
  FlowInfo& f = flows_.at(id.value());
  if (!f.active) return;
  add_seeds(id.value());
  deactivate(id.value());
  if (!deferring_) settle();
}

void FlowModel::advance_to(Seconds t) {
  MRS_REQUIRE(t >= now_ - 1e-9);
  const Seconds dt = std::max(0.0, t - now_);
  now_ = std::max(now_, t);
  if (dt <= 0.0 || active_list_.empty()) return;
  settle();  // integrate at settled rates, even inside a deferral scope
  for (std::size_t pos = 0; pos < active_list_.size(); /* in body */) {
    const std::size_t i = active_list_[pos];
    FlowInfo& f = flows_[i];
    f.remaining -= f.rate * dt;
    if (f.remaining <= kCompletionEpsilon) {
      f.remaining = 0.0;
      bytes_delivered_ += f.total;
      newly_completed_.push_back(FlowId(i));
      add_seeds(i);
      deactivate(i);  // swap-remove: do not advance pos
    } else {
      ++pos;
    }
  }
  if (!deferring_) settle();
}

std::optional<std::pair<Seconds, FlowId>> FlowModel::next_completion() const {
  MRS_REQUIRE(!solve_pending());
  std::optional<std::pair<Seconds, FlowId>> best;
  for (std::size_t i : active_list_) {
    const FlowInfo& f = flows_[i];
    if (f.stalled) continue;  // parked on a cut link: no ETA until repair
    MRS_ASSERT(f.rate > 0.0);  // every unstalled flow gets a positive share
    const Seconds eta = now_ + f.remaining / f.rate;
    if (!best || eta < best->first) best = {eta, FlowId(i)};
  }
  // Progress guarantee: once now_ is large (2^17 s at 1 Gbps), a flow can
  // need less than half an ulp of now_, and its ETA rounds to now_. An
  // advance to now_ moves no time, so the completion would re-arm at the
  // same instant forever. One ulp later the advance integrates more than
  // the flow's remaining bytes and completes it.
  if (best && best->first <= now_) {
    best->first = std::nextafter(now_, std::numeric_limits<Seconds>::max());
  }
  return best;
}

std::vector<FlowId> FlowModel::collect_completed() {
  return std::exchange(newly_completed_, {});
}

const FlowInfo& FlowModel::info(FlowId id) const {
  MRS_REQUIRE(!solve_pending());
  return flows_.at(id.value());
}

BytesPerSec FlowModel::directed_link_load(std::size_t directed_index) const {
  MRS_REQUIRE(!solve_pending());
  if (directed_index >= link_flows_.size()) return 0.0;
  // Ascending flow order: the canonical sum an audit of the routes makes.
  // A parked flow's rate is +0.0, which leaves the sum's bits unchanged.
  BytesPerSec sum = 0.0;
  for (const std::uint32_t i : link_flows_[directed_index]) {
    sum += flows_[i].rate;
  }
  return sum;
}

void FlowModel::recompute_rates() {
  pending_seeds_.clear();
  solve_full();
}

FlowModel::DeferredSolves::DeferredSolves(FlowModel& model) : model_(model) {
  MRS_REQUIRE(!model_.deferring_);
  model_.deferring_ = true;
}

FlowModel::DeferredSolves::~DeferredSolves() {
  model_.deferring_ = false;
  model_.settle();
}

void FlowModel::add_seeds(std::size_t index) {
  for (const Hop& h : hops_[index]) pending_seeds_.push_back(h.link);
}

void FlowModel::settle() {
  if (pending_seeds_.empty()) return;
  // The condition model may have resampled (or a fault may have been
  // toggled) since the last solve; capacities then changed under every
  // component, so a region solve would silently diverge from the reference
  // full pass. Detect it via the epoch counter and fall back to a full
  // solve.
  if (active_list_.empty()) {
    // Nothing left to share the links.
  } else if (naive_ || (cond_ != nullptr &&
                        cond_->resample_epoch() != cond_epoch_seen_)) {
    solve_full();
  } else {
    ++solves_;
    apply_stall_delta(reach_region(pending_seeds_, {}, ++visit_epoch_, ws_));
    fill_region(ws_, /*linear_scan=*/false);
  }
  pending_seeds_.clear();
}

void FlowModel::solve_full() {
  if (cond_ != nullptr) cond_epoch_seen_ = cond_->resample_epoch();
  if (active_list_.empty()) return;
  ++solves_;
  if (naive_) {
    // Reference path: the whole active set as one region, bottlenecks found
    // by scanning every directed link — the pre-incremental solver.
    apply_stall_delta(reach_region({}, active_list_, ++visit_epoch_, ws_));
    fill_region(ws_, /*linear_scan=*/true);
    return;
  }
  // Solve each connected component of the flow/link incidence graph on its
  // own (rates in one component do not depend on any other), bit-identically
  // to the one-region solve. A flow was reached in this pass iff its stamp
  // is newer than the epoch the pass started at.
  const std::uint64_t pass_floor = visit_epoch_;
  const bool parallel = solver_threads_ > 1;
  component_seed_.clear();
  for (const std::size_t i : active_list_) {
    if (flow_seen_[i] > pass_floor) continue;
    const std::size_t seed[] = {i};
    apply_stall_delta(reach_region({}, seed, ++visit_epoch_, ws_));
    if (parallel) {
      component_seed_.push_back(i);
    } else {
      fill_region(ws_, /*linear_scan=*/false);
    }
  }
  const std::size_t used = component_seed_.size();
  if (used == 0) return;
  // One component: it is still reached in ws_, so no worker is needed.
  if (used == 1) {
    fill_region(ws_, /*linear_scan=*/false);
    return;
  }
  // Deterministic parallel sweep: components are disjoint in the flows and
  // links they write, and each worker has its own workspace and its own
  // flow stamps, so the result is bit-identical to the serial loop
  // regardless of scheduling. The partition pass above already parked the
  // stalled flows, so the workers' stall deltas are zero.
  const std::size_t workers = std::min(solver_threads_, used);
  if (thread_ws_.size() < workers) thread_ws_.resize(workers);
  component_stall_delta_.assign(used, 0);
  const std::uint64_t epoch_base = visit_epoch_;
  visit_epoch_ += used;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([this, t, workers, used, epoch_base] {
      for (std::size_t u = t; u < used; u += workers) {
        const std::size_t seed[] = {component_seed_[u]};
        component_stall_delta_[u] =
            reach_region({}, seed, epoch_base + 1 + u, thread_ws_[t]);
        fill_region(thread_ws_[t], /*linear_scan=*/false);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t u = 0; u < used; ++u) {
    apply_stall_delta(component_stall_delta_[u]);
  }
}

void FlowModel::apply_stall_delta(int delta) {
  stalled_count_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(stalled_count_) + delta);
}

int FlowModel::reach_region(std::span<const std::size_t> seed_links,
                            std::span<const std::size_t> seed_flows,
                            std::uint64_t flow_epoch, Workspace& ws) {
  const std::size_t directed_links = link_flows_.size();
  if (ws.link_stamp.size() < directed_links) {
    ws.link_stamp.assign(directed_links, 0);
    ws.link_slot.resize(directed_links);
  }
  ++ws.epoch;
  ws.links.clear();
  ws.cap.clear();
  ws.count.clear();
  ws.by_cap.clear();
  ws.unfrozen = 0;
  int stall_delta = 0;

  const auto reach_link = [&ws, this](std::size_t d) {
    if (ws.link_stamp[d] != ws.epoch) {
      ws.link_stamp[d] = ws.epoch;
      ws.link_slot[d] = ws.links.size();
      ws.links.push_back(d);
      ws.cap.push_back(capacity_of(d));
      ws.count.push_back(0);
    }
    return ws.link_slot[d];
  };
  // Register and count the flow on each of its links; a flow that crosses
  // a cut link is parked and uncounted.
  const auto reach_flow = [&](std::size_t i) {
    if (flow_seen_[i] == flow_epoch) return;
    flow_seen_[i] = flow_epoch;
    bool stalled = false;
    for (Hop& h : hops_[i]) {
      h.slot = static_cast<std::uint32_t>(reach_link(h.link));
      ++ws.count[h.slot];
      stalled = stalled || ws.cap[h.slot] <= 0.0;
    }
    FlowInfo& f = flows_[i];
    f.frozen = stalled;
    if (stalled) {
      for (const Hop& h : hops_[i]) --ws.count[h.slot];
      if (!f.stalled) ++stall_delta;
      f.stalled = true;
      f.rate = 0.0;
      return;
    }
    if (f.stalled) --stall_delta;
    f.stalled = false;
    ++ws.unfrozen;
    // Shares are finite (every capacity is), so an uncapped flow can never
    // reach its cap before its bottleneck.
    if (f.rate_cap < std::numeric_limits<double>::infinity()) {
      ws.by_cap.emplace_back(f.rate_cap, i);
    }
  };

  for (const std::size_t d : seed_links) {
    if (!link_flows_[d].empty()) reach_link(d);
  }
  for (const std::size_t i : seed_flows) reach_flow(i);
  // The slots form the traversal's queue: each registered link hands on
  // the flows crossing it, which register their other links.
  for (std::size_t ls = 0; ls < ws.links.size(); ++ls) {
    for (const std::uint32_t i : link_flows_[ws.links[ls]]) reach_flow(i);
  }
  std::sort(ws.by_cap.begin(), ws.by_cap.end());
  return stall_delta;
}

void FlowModel::fill_region(Workspace& ws, bool linear_scan) {
  // Canonical progressive filling over one region (a union of whole
  // connected components). Determinism contract: every floating-point
  // operation happens in an order derived purely from the region's own
  // state — capped freezes ascend by (cap, flow), each bottleneck's members
  // freeze in ascending flow order, and bottleneck ties break on the
  // smallest directed index — so solving a component alone yields the very
  // same bits as solving it inside the full network, whatever order the
  // traversal registered its links in.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t directed_links = link_flows_.size();
  std::size_t unfrozen = ws.unfrozen;

  // The bottleneck key: (share, directed index), compared exactly.
  const auto key_less = [&ws](std::size_t a, std::size_t b) {
    return ws.share[a] < ws.share[b] ||
           (ws.share[a] == ws.share[b] && ws.links[a] < ws.links[b]);
  };
  const std::size_t region_links = ws.links.size();
  const std::size_t blocks = (region_links + kShareBlock - 1) / kShareBlock;
  if (!linear_scan) {
    ws.share.resize(region_links);
    for (std::size_t ls = 0; ls < region_links; ++ls) {
      ws.share[ls] = ws.count[ls] > 0
                         ? ws.cap[ls] / static_cast<double>(ws.count[ls])
                         : kInf;
    }
    ws.block_min.resize(blocks);
    ws.block_dirty.assign(blocks, 1);
  }

  auto freeze = [&](std::size_t i, double rate) {
    FlowInfo& f = flows_[i];
    f.frozen = true;
    --unfrozen;
    // Floor at 1 B/s so numerical corner cases on positive-capacity links
    // can never stall a flow (genuinely cut links are parked in
    // reach_region); the unfloored rate is what the link pool hands back.
    f.rate = std::max(rate, 1.0);
    for (const Hop& h : hops_[i]) {
      const std::size_t ls = h.slot;
      ws.cap[ls] = std::max(0.0, ws.cap[ls] - rate);
      --ws.count[ls];
      if (linear_scan) continue;
      const double old_share = ws.share[ls];
      ws.share[ls] = ws.count[ls] > 0
                         ? ws.cap[ls] / static_cast<double>(ws.count[ls])
                         : kInf;
      // Keep the block's cached minimum exact: a slot that now beats it
      // takes its place; the minimum itself rising forces a rescan.
      const std::size_t b = ls / kShareBlock;
      if (ws.block_dirty[b]) continue;
      const std::size_t m = ws.block_min[b];
      if (m == ls) {
        if (ws.share[ls] > old_share) ws.block_dirty[b] = 1;
      } else if (key_less(ls, m)) {
        ws.block_min[b] = ls;
      }
    }
  };

  // Bottleneck = the (share, directed index)-smallest link with unfrozen
  // flows, as (share, region slot); both search strategies agree on that
  // key exactly.
  auto find_bottleneck = [&]() -> std::pair<double, std::size_t> {
    if (linear_scan) {
      // Reference path: scan every directed link of the network, like the
      // pre-incremental solver (ascending index = smallest-index ties).
      double best_share = std::numeric_limits<double>::max();
      std::size_t best_link = directed_links;
      for (std::size_t d = 0; d < directed_links; ++d) {
        if (ws.link_stamp[d] != ws.epoch) continue;
        const std::size_t ls = ws.link_slot[d];
        if (ws.count[ls] == 0) continue;
        const double share = ws.cap[ls] / static_cast<double>(ws.count[ls]);
        if (share < best_share) {
          best_share = share;
          best_link = d;
        }
      }
      MRS_ASSERT(best_link < directed_links);
      return {best_share, ws.link_slot[best_link]};
    }
    // Rescan the blocks whose cached minimum went stale, then take the
    // smallest block minimum.
    std::size_t best = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (ws.block_dirty[b]) {
        const std::size_t begin = b * kShareBlock;
        const std::size_t end = std::min(begin + kShareBlock, region_links);
        std::size_t m = begin;
        for (std::size_t ls = begin + 1; ls < end; ++ls) {
          if (key_less(ls, m)) m = ls;
        }
        ws.block_min[b] = m;
        ws.block_dirty[b] = 0;
      }
      if (b == 0 || key_less(ws.block_min[b], best)) best = ws.block_min[b];
    }
    // Every unfrozen flow keeps a positive count on each of its links.
    MRS_ASSERT(ws.count[best] > 0);
    return {ws.share[best], best};
  };

  std::size_t cap_ptr = 0;
  while (unfrozen > 0) {
    const auto best = find_bottleneck();
    const double best_share = std::max(best.first, 0.0);

    // Application-limited flows whose cap is at or below the current fair
    // share freeze at their cap first (the surplus goes back into the pool
    // for network-limited flows). The fair share never decreases across
    // rounds, so one sorted sweep visits each capped flow exactly once.
    bool any_capped = false;
    while (cap_ptr < ws.by_cap.size() &&
           ws.by_cap[cap_ptr].first <= best_share) {
      const auto [cap, i] = ws.by_cap[cap_ptr];
      ++cap_ptr;
      if (!flows_[i].frozen) {
        freeze(i, cap);
        any_capped = true;
      }
    }
    if (any_capped) continue;  // shares changed; re-derive the bottleneck

    // Freeze every unfrozen flow on the bottleneck at its equal share, in
    // ascending flow order (the link's list). The last one takes the exact
    // residual capacity instead of the computed share, so the link's frozen
    // rates sum to its capacity with no accumulated subtraction drift.
    const std::size_t bls = best.second;
    MRS_ASSERT(ws.count[bls] > 0);
    const auto& members = link_flows_[ws.links[bls]];
    for (std::size_t k = 0; k < members.size() && ws.count[bls] > 0; ++k) {
      const std::size_t i = members[k];
      if (flows_[i].frozen) continue;
      const double rate = ws.count[bls] == 1
                              ? std::min(ws.cap[bls], flows_[i].rate_cap)
                              : best_share;
      freeze(i, rate);
    }
  }
}

}  // namespace mrs::net
