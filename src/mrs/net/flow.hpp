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
// the list of active flows crossing it and the current rate aggregate, and
// on each event re-derives shares only for the component reachable from the
// touched links, with a lazy min-heap over (equal share, directed index)
// replacing the full linear bottleneck scan. The progressive filling itself
// is canonicalized — capped flows freeze in ascending (cap, flow-index)
// order, bottleneck members in ascending flow-index order, ties on the
// bottleneck broken by directed index — which makes a component-local solve
// bit-identical to the full-network solve, so the retained reference path
// (`set_naive_flow_solver`) can gate the fast path byte-for-byte, and
// independent components can even be solved on parallel threads
// (`set_flow_solver_threads`) without changing a single bit.
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
  /// both active and not stalled on a cut link. Like every rate reader
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
  /// utilization metrics). O(1): aggregates are maintained by the solver.
  [[nodiscard]] BytesPerSec directed_link_load(std::size_t directed_index)
      const {
    MRS_REQUIRE(!solve_pending());
    return directed_index < link_rate_sum_.size()
               ? link_rate_sum_[directed_index]
               : 0.0;
  }

  /// Number of active flows crossing a directed link (maintained
  /// incrementally; O(1)). This is what a link monitor / path probe sees.
  [[nodiscard]] std::size_t flows_on(std::size_t directed_index) const {
    return directed_index < link_flow_count_.size()
               ? link_flow_count_[directed_index]
               : 0;
  }

  /// Total bytes delivered by completed flows so far.
  [[nodiscard]] Bytes bytes_delivered() const { return bytes_delivered_; }

 private:
  /// A flow's membership slot on one directed link (for O(1) swap-removal).
  struct LinkMember {
    std::size_t flow;
    std::uint32_t hop;  ///< index into the flow's path
  };

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
    std::vector<std::vector<std::size_t>> members;  ///< flow slots, ascending
    std::vector<std::size_t> flows;         ///< region slot -> flow index
    std::vector<char> frozen;
    std::vector<std::pair<double, std::size_t>> by_cap;  ///< (cap, flow slot)
    std::vector<std::pair<double, std::size_t>> heap;  ///< (share, dir index)
  };

  [[nodiscard]] BytesPerSec capacity_of(std::size_t directed_index) const;
  /// Mark flow `index` inactive and swap-remove it from the active list and
  /// every per-link membership list.
  void deactivate(std::size_t index);
  void add_to_links(std::size_t index);
  void remove_from_links(std::size_t index);
  /// Queue the directed links of flow `index`'s path for the next solve.
  void add_seeds(std::size_t index);
  /// Full-network solve (all components; optionally in parallel).
  void solve_full();
  /// Gather the active flows of every component touching `seed_links` into
  /// `region_flows_`, sorted ascending.
  void collect_region(std::span<const std::size_t> seed_links);
  /// Drain `bfs_stack_` (directed links marked with the current visit
  /// epoch), appending every newly reached flow to `out_flows`.
  void drain_bfs(std::vector<std::size_t>& out_flows);
  void apply_stall_delta(int delta);
  /// Canonical progressive filling over `flows` (ascending flow indices,
  /// forming a union of whole components). `linear_scan` selects the naive
  /// full-scan bottleneck search instead of the heap. Returns the change in
  /// the number of stalled flows (for the caller to aggregate; keeps the
  /// routine write-disjoint across parallel component solves).
  int solve_region(const std::vector<std::size_t>& flows, Workspace& ws,
                   bool linear_scan);

  const Topology* topo_;
  const LinkConditionModel* cond_;
  std::vector<FlowInfo> flows_;
  std::vector<std::span<const DirectedLink>> paths_;  ///< per flow
  std::vector<FlowId> newly_completed_;
  // Active-flow index: per-event work is O(active), not O(ever created).
  std::vector<std::size_t> active_list_;
  std::vector<std::size_t> active_pos_;  ///< flow index -> slot in list
  std::vector<std::size_t> link_flow_count_;  ///< active flows per dir link
  std::vector<std::vector<LinkMember>> link_flows_;  ///< per directed link
  std::vector<std::vector<std::size_t>> flow_link_slots_;  ///< per flow/hop
  std::vector<BytesPerSec> link_rate_sum_;  ///< maintained rate aggregates
  Seconds now_ = 0.0;
  Bytes bytes_delivered_ = 0.0;
  bool naive_ = false;
  bool deferring_ = false;
  std::uint64_t solves_ = 0;
  std::size_t solver_threads_ = 1;
  std::size_t stalled_count_ = 0;
  std::uint64_t cond_epoch_seen_ = 0;
  // Region-discovery scratch (BFS over the flow/link incidence graph).
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> link_seen_;
  std::vector<std::uint64_t> flow_seen_;
  std::vector<std::size_t> bfs_stack_;
  std::vector<std::size_t> region_flows_;
  std::vector<std::size_t> pending_seeds_;  ///< links touched since a solve
  std::vector<std::size_t> naive_flows_;  ///< sorted active list (reference)
  // Component partition scratch for full solves.
  std::vector<std::vector<std::size_t>> component_flows_;
  std::vector<int> component_stall_delta_;
  Workspace ws_;
  std::vector<Workspace> thread_ws_;
};

}  // namespace mrs::net
