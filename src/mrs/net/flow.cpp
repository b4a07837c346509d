#include "mrs/net/flow.hpp"

#include <algorithm>
#include <functional>
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
  link_flow_count_.assign(directed_links, 0);
  link_flows_.assign(directed_links, {});
  link_rate_sum_.assign(directed_links, 0.0);
  link_seen_.assign(directed_links, 0);
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

void FlowModel::add_to_links(std::size_t index) {
  const std::span<const DirectedLink> path = paths_[index];
  auto& slots = flow_link_slots_[index];
  slots.resize(path.size());
  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    const std::size_t d = path[hop].directed_index();
    slots[hop] = link_flows_[d].size();
    link_flows_[d].push_back({index, static_cast<std::uint32_t>(hop)});
    ++link_flow_count_[d];
  }
}

void FlowModel::remove_from_links(std::size_t index) {
  const std::span<const DirectedLink> path = paths_[index];
  auto& slots = flow_link_slots_[index];
  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    const std::size_t d = path[hop].directed_index();
    auto& list = link_flows_[d];
    const std::size_t s = slots[hop];
    MRS_ASSERT(s < list.size() && list[s].flow == index);
    if (s != list.size() - 1) {
      list[s] = list.back();
      flow_link_slots_[list[s].flow][list[s].hop] = s;
    }
    list.pop_back();
    MRS_ASSERT(link_flow_count_[d] > 0);
    --link_flow_count_[d];
    // A link that just went idle is not on any remaining flow's path, so no
    // region solve will rebuild its aggregate — zero it here.
    if (link_flow_count_[d] == 0) link_rate_sum_[d] = 0.0;
  }
  // Reclaim the slot storage: the flow never becomes active again.
  std::vector<std::size_t>().swap(slots);
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
  const FlowId id(index);
  flows_.push_back(
      {src, dst, size, size, now, 0.0, rate_cap, true, false});
  paths_.push_back(topo_->path(src, dst));
  MRS_ASSERT(!paths_.back().empty());
  flow_link_slots_.emplace_back();
  flow_seen_.push_back(0);
  active_pos_.push_back(active_list_.size());
  active_list_.push_back(index);
  add_to_links(index);
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
  return best;
}

std::vector<FlowId> FlowModel::collect_completed() {
  return std::exchange(newly_completed_, {});
}

const FlowInfo& FlowModel::info(FlowId id) const {
  MRS_REQUIRE(!solve_pending());
  return flows_.at(id.value());
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
  for (const DirectedLink& dl : paths_[index]) {
    pending_seeds_.push_back(dl.directed_index());
  }
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
    collect_region(pending_seeds_);
    apply_stall_delta(solve_region(region_flows_, ws_, /*linear_scan=*/false));
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
    naive_flows_.assign(active_list_.begin(), active_list_.end());
    std::sort(naive_flows_.begin(), naive_flows_.end());
    apply_stall_delta(solve_region(naive_flows_, ws_, /*linear_scan=*/true));
    return;
  }
  // Partition the active flows into connected components of the flow/link
  // incidence graph; each solves independently (rates in one component do
  // not depend on any other), and bit-identically to the one-region solve.
  ++visit_epoch_;
  std::size_t used = 0;
  for (const std::size_t i : active_list_) {
    if (flow_seen_[i] == visit_epoch_) continue;
    if (component_flows_.size() == used) component_flows_.emplace_back();
    auto& comp = component_flows_[used];
    ++used;
    comp.clear();
    flow_seen_[i] = visit_epoch_;
    comp.push_back(i);
    bfs_stack_.clear();
    for (const DirectedLink& dl : paths_[i]) {
      const std::size_t d = dl.directed_index();
      if (link_seen_[d] != visit_epoch_) {
        link_seen_[d] = visit_epoch_;
        bfs_stack_.push_back(d);
      }
    }
    drain_bfs(comp);
    std::sort(comp.begin(), comp.end());
  }
  const std::size_t workers = std::min(solver_threads_, used);
  if (workers <= 1) {
    for (std::size_t u = 0; u < used; ++u) {
      apply_stall_delta(
          solve_region(component_flows_[u], ws_, /*linear_scan=*/false));
    }
    return;
  }
  // Deterministic parallel sweep: components are disjoint in the flows and
  // links they write, and each worker has its own workspace, so the result
  // is bit-identical to the serial loop regardless of scheduling.
  if (thread_ws_.size() < workers) thread_ws_.resize(workers);
  component_stall_delta_.assign(used, 0);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([this, t, workers, used] {
      for (std::size_t u = t; u < used; u += workers) {
        component_stall_delta_[u] =
            solve_region(component_flows_[u], thread_ws_[t],
                         /*linear_scan=*/false);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t u = 0; u < used; ++u) {
    apply_stall_delta(component_stall_delta_[u]);
  }
}

void FlowModel::collect_region(std::span<const std::size_t> seed_links) {
  ++visit_epoch_;
  region_flows_.clear();
  bfs_stack_.clear();
  for (const std::size_t d : seed_links) {
    if (link_seen_[d] != visit_epoch_) {
      link_seen_[d] = visit_epoch_;
      bfs_stack_.push_back(d);
    }
  }
  drain_bfs(region_flows_);
  std::sort(region_flows_.begin(), region_flows_.end());
}

void FlowModel::drain_bfs(std::vector<std::size_t>& out_flows) {
  while (!bfs_stack_.empty()) {
    const std::size_t d = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const LinkMember& member : link_flows_[d]) {
      if (flow_seen_[member.flow] == visit_epoch_) continue;
      flow_seen_[member.flow] = visit_epoch_;
      out_flows.push_back(member.flow);
      for (const DirectedLink& dl : paths_[member.flow]) {
        const std::size_t dd = dl.directed_index();
        if (link_seen_[dd] != visit_epoch_) {
          link_seen_[dd] = visit_epoch_;
          bfs_stack_.push_back(dd);
        }
      }
    }
  }
}

void FlowModel::apply_stall_delta(int delta) {
  stalled_count_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(stalled_count_) + delta);
}

int FlowModel::solve_region(const std::vector<std::size_t>& region,
                            Workspace& ws, bool linear_scan) {
  // Canonical progressive filling over one region (a union of whole
  // connected components, flow indices ascending). Determinism contract:
  // every floating-point operation happens in an order derived purely from
  // the region's own state — capped freezes ascend by (cap, flow), each
  // bottleneck's members freeze in ascending flow order, and bottleneck ties
  // break on the smallest directed index — so solving a component alone
  // yields the very same bits as solving it inside the full network.
  const std::size_t directed_links = link_flow_count_.size();
  if (ws.link_stamp.size() < directed_links) {
    ws.link_stamp.assign(directed_links, 0);
    ws.link_slot.resize(directed_links);
  }
  ++ws.epoch;
  ws.links.clear();
  ws.cap.clear();
  ws.count.clear();
  ws.flows.assign(region.begin(), region.end());
  ws.frozen.clear();
  ws.by_cap.clear();
  ws.heap.clear();
  int stall_delta = 0;

  // Phase 1: register every link once (reading its effective capacity),
  // park flows that cross a cut link at rate 0, and build per-link member
  // lists in ascending flow order.
  std::size_t unfrozen = 0;
  for (std::size_t slot = 0; slot < ws.flows.size(); ++slot) {
    const std::size_t i = ws.flows[slot];
    bool stalled = false;
    for (const DirectedLink& dl : paths_[i]) {
      const std::size_t d = dl.directed_index();
      if (ws.link_stamp[d] != ws.epoch) {
        ws.link_stamp[d] = ws.epoch;
        ws.link_slot[d] = ws.links.size();
        ws.links.push_back(d);
        ws.cap.push_back(capacity_of(d));
        ws.count.push_back(0);
        if (ws.members.size() < ws.links.size()) ws.members.emplace_back();
        ws.members[ws.links.size() - 1].clear();
      }
      if (ws.cap[ws.link_slot[d]] <= 0.0) stalled = true;
    }
    FlowInfo& f = flows_[i];
    if (stalled) {
      if (!f.stalled) ++stall_delta;
      f.stalled = true;
      f.rate = 0.0;
      ws.frozen.push_back(1);
      continue;
    }
    if (f.stalled) --stall_delta;
    f.stalled = false;
    ws.frozen.push_back(0);
    ++unfrozen;
    ws.by_cap.emplace_back(f.rate_cap, slot);
    for (const DirectedLink& dl : paths_[i]) {
      const std::size_t ls = ws.link_slot[dl.directed_index()];
      ++ws.count[ls];
      ws.members[ls].push_back(slot);
    }
  }
  std::sort(ws.by_cap.begin(), ws.by_cap.end());

  const auto cmp = std::greater<>();
  if (!linear_scan) {
    for (std::size_t ls = 0; ls < ws.links.size(); ++ls) {
      if (ws.count[ls] > 0) {
        ws.heap.emplace_back(
            ws.cap[ls] / static_cast<double>(ws.count[ls]), ws.links[ls]);
      }
    }
    std::make_heap(ws.heap.begin(), ws.heap.end(), cmp);
  }

  auto freeze = [&](std::size_t slot, double rate) {
    ws.frozen[slot] = 1;
    --unfrozen;
    const std::size_t i = ws.flows[slot];
    // Floor at 1 B/s so numerical corner cases on positive-capacity links
    // can never stall a flow (genuinely cut links are parked above); the
    // unfloored rate is what the link pool hands back.
    flows_[i].rate = std::max(rate, 1.0);
    for (const DirectedLink& dl : paths_[i]) {
      const std::size_t ls = ws.link_slot[dl.directed_index()];
      ws.cap[ls] = std::max(0.0, ws.cap[ls] - rate);
      --ws.count[ls];
      if (!linear_scan && ws.count[ls] > 0) {
        // Lazy heap: push the link's new share; stale entries are skipped
        // at pop time by re-checking against the current share.
        ws.heap.emplace_back(
            ws.cap[ls] / static_cast<double>(ws.count[ls]), ws.links[ls]);
        std::push_heap(ws.heap.begin(), ws.heap.end(), cmp);
      }
    }
  };

  // Bottleneck = the (share, directed index)-smallest link with unfrozen
  // flows; both search strategies agree on that key exactly.
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
      return {best_share, best_link};
    }
    for (;;) {
      MRS_ASSERT(!ws.heap.empty());
      const auto top = ws.heap.front();
      const std::size_t ls = ws.link_slot[top.second];
      if (ws.count[ls] > 0 &&
          ws.cap[ls] / static_cast<double>(ws.count[ls]) == top.first) {
        return top;  // matches the link's current share: a valid minimum
      }
      std::pop_heap(ws.heap.begin(), ws.heap.end(), cmp);
      ws.heap.pop_back();
    }
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
      const auto [cap, slot] = ws.by_cap[cap_ptr];
      ++cap_ptr;
      if (!ws.frozen[slot]) {
        freeze(slot, cap);
        any_capped = true;
      }
    }
    if (any_capped) continue;  // shares changed; re-derive the bottleneck

    // Freeze every unfrozen flow on the bottleneck at its equal share, in
    // ascending flow order. The last one takes the exact residual capacity
    // instead of the computed share, so the link's frozen rates sum to its
    // capacity with no accumulated subtraction drift.
    const std::size_t bls = ws.link_slot[best.second];
    MRS_ASSERT(ws.count[bls] > 0);
    const auto& members = ws.members[bls];
    for (std::size_t k = 0; k < members.size() && ws.count[bls] > 0; ++k) {
      const std::size_t slot = members[k];
      if (ws.frozen[slot]) continue;
      const double rate =
          ws.count[bls] == 1
              ? std::min(ws.cap[bls], flows_[ws.flows[slot]].rate_cap)
              : best_share;
      freeze(slot, rate);
    }
  }

  // Rebuild the rate aggregates of every region link from the members in
  // ascending flow order (the same canonical sum both solver paths and a
  // from-scratch audit produce).
  for (std::size_t ls = 0; ls < ws.links.size(); ++ls) {
    double sum = 0.0;
    for (const std::size_t slot : ws.members[ls]) {
      sum += flows_[ws.flows[slot]].rate;
    }
    link_rate_sum_[ws.links[ls]] = sum;
  }
  return stall_delta;
}

}  // namespace mrs::net
