// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Every remote data transfer in the simulator (map input fetch, shuffle
// segment) is a flow along the unique route between two hosts. Active flows
// sharing a link split its effective capacity max-min fairly (progressive
// filling), the standard flow-level approximation of TCP behaviour. Rates
// are piecewise constant between "rate events" (flow arrival/departure or a
// background-traffic resample); the discrete-event engine advances the model
// between events and asks for the next completion time.
//
// Scaling design. A flow event only perturbs the rates of flows that share a
// link with it, transitively: the affected *connected component* of the
// flow/link incidence graph. The solver therefore keeps, per directed link,
// the list of active flows crossing it, sorted by flow index (a new flow has
// the largest index, so it appends), and on each event re-derives shares
// only for the component reachable from the touched links, found and
// registered in one traversal. The progressive filling itself is
// canonicalized — capped flows freeze in ascending (cap, flow-index) order,
// bottleneck members in ascending flow-index order (the link's list as it
// stands), ties on the bottleneck broken by directed index — which makes a
// component-local solve bit-identical to the full-network solve, so the
// retained reference path (`set_naive_flow_solver`) can gate the fast path
// byte-for-byte, and independent components can even be solved on parallel
// threads (`set_flow_solver_threads`) without changing a single bit. No
// per-link rate aggregate is kept: a link's load is summed on demand from
// its sorted list, in the same canonical order.
//
// Bottleneck search. Each filling round needs the region link with the
// smallest (equal share, directed index) key. The region's link slots are
// cut into fixed blocks of kShareBlock, and each block caches the slot of
// its minimum key. A freeze lowers or raises the shares of the links on the
// frozen flow's path: a lowered share that beats its block's minimum takes
// its place, and a raised minimum marks the block dirty. The search
// rescans only the dirty blocks, then the block minima. A region solve
// touches a few hundred links over a few dozen rounds, where this costs
// less than a priority queue with one entry per share change, and the
// blocks keep the search sub-linear on regions of thousands of links.
//
// The same property lets a caller batch events: inside a DeferredSolves
// scope, starts, cancels and completions only queue their links, and the
// scope's close solves the union of the touched components once. The
// NetworkService opens one around each completion dispatch, where the
// callbacks usually start the next transfers at the same simulated instant.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"
#include "mrs/net/link_condition.hpp"
#include "mrs/net/topology.hpp"

namespace mrs::net {

struct FlowInfo {
  NodeId src;
  NodeId dst;
  Bytes total = 0.0;
  Bytes remaining = 0.0;
  Seconds start_time = 0.0;
  BytesPerSec rate = 0.0;  ///< current max-min allocation
  /// Application-limited ceiling (e.g. a map task streaming its input no
  /// faster than it can process it). +inf = network-limited.
  BytesPerSec rate_cap = 0.0;
  bool active = false;
  /// True while the flow crosses a zero-effective-capacity (cut) link: the
  /// flow is parked at rate 0, makes no progress, and is excluded from
  /// next_completion() until a repair restores capacity.
  bool stalled = false;
  /// Solver scratch: the flow's rate is fixed for the rest of the current
  /// progressive filling. Meaningless outside a solve.
  bool frozen = false;
};

class FlowModel {
 public:
  /// `cond` may be null: links then run at nominal capacity.
  FlowModel(const Topology* topo, const LinkConditionModel* cond = nullptr);

  /// Start a transfer of `size` bytes from `src` to `dst` at time `now`.
  /// Requires src != dst (local reads are not network flows) and size > 0.
  /// `rate_cap`, when finite, bounds the flow's share (application-limited
  /// sender/receiver). Re-solves the affected rates, at once or, inside a
  /// DeferredSolves scope, when the scope closes.
  FlowId start(NodeId src, NodeId dst, Bytes size, Seconds now,
               BytesPerSec rate_cap =
                   std::numeric_limits<BytesPerSec>::infinity());

  /// Abort an active flow. Re-solves like start().
  void cancel(FlowId id, Seconds now);

  /// Move every active flow forward to time `t` at its current rate; flows
  /// that finish are deactivated and their rates re-solved like start().
  /// A deferred solve still pending is run first, so bytes always move at
  /// settled rates. `t` must not be before the last update.
  void advance_to(Seconds t);

  /// Earliest (time, flow) completion under current rates, if any flow is
  /// both active and not stalled on a cut link. The time is always after
  /// now(): an ETA that rounds to now() is returned as the next double, and
  /// advancing to it completes the flow. Like every rate reader
  /// (info, directed_link_load, stalled_count), requires that no deferred
  /// solve is pending.
  [[nodiscard]] std::optional<std::pair<Seconds, FlowId>> next_completion()
      const;

  /// Flows whose remaining bytes reached zero since the last collect; each
  /// is returned exactly once (advance_to already deactivated them).
  std::vector<FlowId> collect_completed();

  /// Re-run max-min fair sharing over the whole network at once, dropping
  /// any deferred solve (the full pass covers it). Call after the
  /// LinkConditionModel resamples or a link fault is toggled. (Condition-
  /// model epochs are also tracked, so any flow event after a resample
  /// re-solves the full network.)
  void recompute_rates();

  /// Defers rate solves while it lives: start, cancel and completions
  /// queue the directed links of their paths instead of solving, and
  /// closing the scope runs one solve over the union of those links (the
  /// whole network on the naive path or after a condition-model epoch
  /// moved). Rates come out bit-identical to solving after every event,
  /// since each solve re-fills whole components from scratch in canonical
  /// order. The calls that settle are the scope's close, settle(),
  /// advance_to a later time and recompute_rates; reading rates while a
  /// solve is pending is a programming error (MRS_REQUIRE). Scopes do not
  /// nest.
  class DeferredSolves {
   public:
    explicit DeferredSolves(FlowModel& model);
    ~DeferredSolves();
    DeferredSolves(const DeferredSolves&) = delete;
    DeferredSolves& operator=(const DeferredSolves&) = delete;

   private:
    FlowModel& model_;
  };
  /// True while a DeferredSolves scope is open.
  [[nodiscard]] bool solves_deferred() const { return deferring_; }
  /// Run the pending deferred solve now (a no-op when none is pending).
  /// Hook it to the LinkConditionModel's before-change callback so that a
  /// capacity change inside a scope cannot reach the flows it deferred.
  void settle();
  /// True while a deferred scope holds flow changes it has not solved.
  [[nodiscard]] bool solve_pending() const { return !pending_seeds_.empty(); }
  /// Rate solves run so far: one per region solve or full-network pass.
  [[nodiscard]] std::uint64_t solves() const { return solves_; }

  /// Reference path: every solve covers the whole network with a full
  /// linear bottleneck scan, like the pre-incremental solver; solves run
  /// at the same points as on the fast path (per flow event, or once per
  /// DeferredSolves scope). The incremental path is bit-identical to this
  /// (see the header comment); the differential tests gate that property.
  void set_naive_flow_solver(bool naive) { naive_ = naive; }
  [[nodiscard]] bool naive_flow_solver() const { return naive_; }

  /// Solve independent connected components on up to `n` worker threads
  /// during full recomputations. Deterministic: components are disjoint in
  /// both the flows and the links they write, so the result is bit-identical
  /// to the serial solve regardless of thread scheduling. <= 1 disables.
  void set_flow_solver_threads(std::size_t n) {
    solver_threads_ = n == 0 ? 1 : n;
  }
  [[nodiscard]] std::size_t flow_solver_threads() const {
    return solver_threads_;
  }

  [[nodiscard]] const FlowInfo& info(FlowId id) const;
  [[nodiscard]] std::size_t active_count() const {
    return active_list_.size();
  }
  /// Active flows currently parked on a cut link.
  [[nodiscard]] std::size_t stalled_count() const {
    MRS_REQUIRE(!solve_pending());
    return stalled_count_;
  }
  [[nodiscard]] Seconds now() const { return now_; }

  /// Sum of current flow rates crossing a directed link (for tests and
  /// utilization metrics), summed on demand in ascending flow order.
  /// O(flows on the link).
  [[nodiscard]] BytesPerSec directed_link_load(std::size_t directed_index)
      const;

  /// Number of active flows crossing a directed link (O(1)). This is what
  /// a link monitor / path probe sees.
  [[nodiscard]] std::size_t flows_on(std::size_t directed_index) const {
    return flows_crossing(directed_index).size();
  }
  /// Indices of the active flows crossing a directed link, ascending.
  [[nodiscard]] std::span<const std::uint32_t> flows_crossing(
      std::size_t directed_index) const {
    if (directed_index >= link_flows_.size()) return {};
    return link_flows_[directed_index];
  }

  /// Total bytes delivered by completed flows so far.
  [[nodiscard]] Bytes bytes_delivered() const { return bytes_delivered_; }

 private:
  /// One directed link of an active flow's route, with that link's slot in
  /// the region of the flow's latest solve.
  struct Hop {
    std::uint32_t link;  ///< directed index
    std::uint32_t slot;  ///< region slot, set when a solve reaches the flow
  };

  /// Region link slots per cached block minimum in the bottleneck search.
  static constexpr std::size_t kShareBlock = 64;

  /// Reusable progressive-filling state for one region (a union of
  /// connected components). Epoch-stamped so activation is O(region), not
  /// O(network); each solver thread owns one.
  struct Workspace {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> link_stamp;  ///< per directed link
    std::vector<std::size_t> link_slot;     ///< directed link -> region slot
    std::vector<std::size_t> links;         ///< region slot -> directed index
    std::vector<double> cap;                ///< residual capacity per slot
    std::vector<std::size_t> count;         ///< unfrozen flows per slot
    /// cap / count per slot, +inf once no unfrozen flow crosses it.
    std::vector<double> share;
    std::vector<std::size_t> block_min;    ///< per block: min-key slot
    std::vector<char> block_dirty;         ///< per block: block_min stale
    /// (cap, flow index) of the finite-cap flows.
    std::vector<std::pair<double, std::size_t>> by_cap;
    std::size_t unfrozen = 0;  ///< reached flows not parked on a cut link
  };

  [[nodiscard]] BytesPerSec capacity_of(std::size_t directed_index) const;
  /// Mark flow `index` inactive and swap-remove it from the active list;
  /// erase it from every per-link list.
  void deactivate(std::size_t index);
  /// Fill flow `index`'s hops from `path` and append it to every link's
  /// list (it is the largest index there, so the lists stay sorted).
  void add_to_links(std::size_t index, std::span<const DirectedLink> path);
  /// Erase the flow from every link's list, in order, and free its hops.
  void remove_from_links(std::size_t index);
  /// Queue the directed links of flow `index`'s path for the next solve.
  void add_seeds(std::size_t index);
  /// Full-network solve (all components; optionally in parallel).
  void solve_full();
  void apply_stall_delta(int delta);
  /// One traversal of the flow/link incidence graph from `seed_links` and
  /// `seed_flows`: registers every link it reaches once (region slot,
  /// effective capacity), then the flows on it not yet reached (stamped
  /// `flow_epoch` in flow_seen_), storing each hop's slot in Hop::slot and
  /// parking flows that cross a cut link at rate 0. The result is a union
  /// of whole components. Returns the change in the number of stalled
  /// flows (for the caller to aggregate; keeps the routine write-disjoint
  /// across parallel component solves).
  int reach_region(std::span<const std::size_t> seed_links,
                   std::span<const std::size_t> seed_flows,
                   std::uint64_t flow_epoch, Workspace& ws);
  /// Canonical progressive filling over the region `ws` last reached.
  /// `linear_scan` selects the naive full-scan bottleneck search instead
  /// of the blocked one.
  void fill_region(Workspace& ws, bool linear_scan);

  const Topology* topo_;
  const LinkConditionModel* cond_;
  std::vector<FlowInfo> flows_;
  /// Per flow: its route's hops while active, empty once deactivated.
  std::vector<std::vector<Hop>> hops_;
  std::vector<FlowId> newly_completed_;
  // Active-flow index: per-event work is O(active), not O(ever created).
  std::vector<std::size_t> active_list_;
  std::vector<std::size_t> active_pos_;  ///< flow index -> slot in list
  /// Per directed link: the active flows crossing it, ascending.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  Seconds now_ = 0.0;
  Bytes bytes_delivered_ = 0.0;
  bool naive_ = false;
  bool deferring_ = false;
  std::uint64_t solves_ = 0;
  std::size_t solver_threads_ = 1;
  std::size_t stalled_count_ = 0;
  std::uint64_t cond_epoch_seen_ = 0;
  // Region-discovery stamps: a flow is reached by the traversal stamped
  // with the epoch its flow_seen_ entry holds.
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> flow_seen_;
  std::vector<std::size_t> pending_seeds_;  ///< links touched since a solve
  // Parallel full solves: one flow of each component, and its stall delta.
  std::vector<std::size_t> component_seed_;
  std::vector<int> component_stall_delta_;
  Workspace ws_;
  std::vector<Workspace> thread_ws_;
};

}  // namespace mrs::net
