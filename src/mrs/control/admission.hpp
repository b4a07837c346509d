// Job admission control: the control-plane layer between the arrival
// stream and the engine.
//
// Every arrival is offered to an AdmissionController before it activates.
// The installed policy answers admit / defer / reject from a snapshot of
// cheap observables (backlog L, queued tasks, slot utilization, and the
// controller's EWMA of realized queueing delays). Deferred arrivals retry
// with capped exponential backoff and are hard-rejected after
// DeferralConfig::max_deferrals attempts, so an overloaded cluster sheds
// load instead of accumulating an unbounded backlog (the goodput-vs-
// rejection trade-off the admission sweep measures past the saturation
// knee).
//
// Policies are deterministic (no RNG): runs stay byte-identical per
// (config, seed), and the always-admit policy is a provable no-op — the
// equivalence suite compares it against an engine with no controller
// installed.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/ids.hpp"
#include "mrs/common/units.hpp"
#include "mrs/telemetry/registry.hpp"

namespace mrs::control {

enum class AdmissionAction {
  kAdmit,   ///< activate the job now
  kDefer,   ///< retry after a backoff (counts against max_deferrals)
  kReject,  ///< drop the job permanently
};

enum class AdmissionPolicyKind {
  kAlwaysAdmit,      ///< baseline: every arrival activates (no-op path)
  kStaticThreshold,  ///< defer when L or estimated queueing delay is high
  kTokenBucket,      ///< rate-limit admissions to a sustained jobs/hour
  kAdaptive,         ///< AIMD L-limit driven by realized queueing delay
};

[[nodiscard]] constexpr const char* to_string(AdmissionPolicyKind k) {
  switch (k) {
    case AdmissionPolicyKind::kAlwaysAdmit: return "always-admit";
    case AdmissionPolicyKind::kStaticThreshold: return "static-threshold";
    case AdmissionPolicyKind::kTokenBucket: return "token-bucket";
    case AdmissionPolicyKind::kAdaptive: return "adaptive";
  }
  return "?";
}

/// Cheap per-decision snapshot the engine hands the policy. All fields are
/// already maintained by the engine/cluster; nothing here requires a scan
/// beyond the active-job list.
struct AdmissionObservables {
  Seconds now = 0.0;
  /// Tenant of the arriving job (0 in single-tenant runs).
  TenantId tenant = TenantId(0);
  /// Admitted, unfinished jobs (the backlog L an arrival would join).
  std::size_t jobs_in_system = 0;
  /// Admitted, unfinished jobs belonging to `tenant` (quota gate input).
  std::size_t tenant_jobs_in_system = 0;
  /// Unassigned map + reduce tasks across the active jobs.
  std::size_t tasks_queued = 0;
  double map_slot_utilization = 0.0;
  double reduce_slot_utilization = 0.0;
  /// The controller's EWMA of realized queueing delays (activation ->
  /// first task assignment); filled in by the controller, not the caller.
  Seconds queueing_delay_ewma = 0.0;
};

/// Retry schedule for deferred arrivals: backoff_k = min(initial * 2^k,
/// max_backoff); after max_deferrals deferrals the next defer becomes a
/// hard reject.
struct DeferralConfig {
  std::size_t max_deferrals = 4;
  Seconds initial_backoff = 15.0;
  Seconds max_backoff = 120.0;
};

struct AdmissionConfig {
  AdmissionPolicyKind policy = AdmissionPolicyKind::kAlwaysAdmit;

  // --- static threshold (and the adaptive policy's initial limit) ---
  /// Defer when jobs_in_system >= this; <= 0 disables the L check.
  double max_jobs_in_system = 12.0;
  /// Defer when the realized queueing-delay EWMA exceeds this; <= 0
  /// disables the delay check.
  Seconds max_queueing_delay = 0.0;

  // --- token bucket ---
  /// Sustained admission rate; one token accrues every 3600/rate seconds.
  double bucket_rate_per_hour = 600.0;
  /// Burst allowance (maximum accumulated tokens).
  double bucket_capacity = 4.0;

  // --- adaptive (AIMD on the L-limit) ---
  /// Per realized-delay sample: above target multiply the limit by
  /// adaptive_decrease, below target add adaptive_step.
  Seconds adaptive_target_delay = 60.0;
  double adaptive_min_limit = 2.0;
  double adaptive_max_limit = 64.0;
  double adaptive_step = 0.5;
  double adaptive_decrease = 0.7;

  /// Smoothing for the realized queueing-delay EWMA the threshold and
  /// adaptive policies read.
  double delay_ewma_alpha = 0.2;

  // --- per-tenant quotas ---
  /// When non-empty (index = tenant id, every weight > 0), tenant t may
  /// hold at most its weighted share of the backlog budget:
  ///   limit_t = max_jobs_in_system * weight_t / sum(weights).
  /// An arrival whose tenant is at its limit is deferred regardless of the
  /// policy's verdict (and hard-rejected once its deferral budget runs
  /// out), so one tenant's overload cannot evict another tenant's share.
  /// Empty = quotas off (the byte-identity no-op path).
  std::vector<double> tenant_quota_weights;

  DeferralConfig deferral;
};

/// One pluggable admit/defer decision rule. Policies see only the
/// observables snapshot; the controller owns the deferral budget and
/// turns an over-budget defer into a reject.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Admit or defer this arrival attempt (never reject: rejection is the
  /// controller's deferral-budget decision).
  [[nodiscard]] virtual AdmissionAction decide(
      const AdmissionObservables& obs) = 0;
  /// Realized queueing delay of an admitted job (feedback for adaptive
  /// policies).
  virtual void on_queueing_delay(Seconds /*delay*/) {}
  /// Current effective backlog limit, for introspection/telemetry
  /// (0 when the policy has no L-limit notion).
  [[nodiscard]] virtual double backlog_limit() const { return 0.0; }
};

[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(
    const AdmissionConfig& cfg);

struct AdmissionDecision {
  AdmissionAction action = AdmissionAction::kAdmit;
  /// Backoff until the retry attempt (valid when action == kDefer).
  Seconds retry_in = 0.0;
};

/// Per-arrival ledger entry. Created at the arrival's first decision and
/// updated in place on every retry, so the vector covers every arrival
/// that reached its submit time — including ones still parked in the
/// deferral queue when a run is truncated.
struct ArrivalOutcome {
  JobId job;
  TenantId tenant = TenantId(0);  ///< owning tenant of the arrival
  Seconds arrival_time = 0.0;  ///< original submit time
  Seconds decided_time = 0.0;  ///< admit / final-reject time (last retry)
  std::size_t deferrals = 0;   ///< defer decisions taken for this arrival
  bool resolved = false;       ///< admitted or rejected (not pending retry)
  bool admitted = false;
};

/// Owns the policy, the deferral budget, the per-arrival outcome ledger
/// and the realized queueing-delay EWMA. One controller per run; the
/// engine consults it as each job reaches its submit time.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg);

  /// Optional telemetry (control.* counters + backlog-limit gauge); call
  /// before the run starts.
  void set_telemetry(telemetry::Registry* registry);

  /// Decide arrival attempt `attempt` (0 = the original arrival) for
  /// `job`. `obs.queueing_delay_ewma` is overwritten with the
  /// controller's own EWMA before the policy sees it.
  [[nodiscard]] AdmissionDecision on_arrival(JobId job, Seconds arrival_time,
                                             std::size_t attempt,
                                             AdmissionObservables obs);

  /// Feedback: an admitted job got its first task assignment `delay`
  /// seconds after activation.
  void note_queueing_delay(Seconds delay);

  [[nodiscard]] const char* policy_name() const { return policy_->name(); }
  [[nodiscard]] double backlog_limit() const {
    return policy_->backlog_limit();
  }
  [[nodiscard]] Seconds queueing_delay_ewma() const { return delay_ewma_; }

  /// Arrivals currently parked between a defer and its retry.
  [[nodiscard]] std::size_t deferral_queue_depth() const {
    return deferred_now_;
  }
  [[nodiscard]] std::size_t jobs_admitted() const { return admitted_; }
  [[nodiscard]] std::size_t jobs_rejected() const { return rejected_; }
  /// Total defer decisions (an arrival deferred twice counts twice).
  [[nodiscard]] std::size_t deferrals_issued() const { return deferred_; }

  [[nodiscard]] const std::vector<ArrivalOutcome>& outcomes() const {
    return outcomes_;
  }

  /// Backlog limit the quota grants `tenant` (max_jobs_in_system scaled by
  /// its weight share); +inf when quotas are off.
  [[nodiscard]] double tenant_quota_limit(TenantId tenant) const;

 private:
  [[nodiscard]] Seconds backoff_for(std::size_t deferrals_so_far) const;
  void count_tenant_outcome(TenantId tenant, AdmissionAction action);

  AdmissionConfig cfg_;
  std::unique_ptr<AdmissionPolicy> policy_;
  std::vector<ArrivalOutcome> outcomes_;
  std::vector<std::size_t> outcome_index_;  ///< JobId -> outcomes_ slot
  Seconds delay_ewma_ = 0.0;
  bool delay_seen_ = false;
  std::size_t deferred_now_ = 0;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t deferred_ = 0;

  double quota_weight_sum_ = 0.0;  ///< cached sum of tenant_quota_weights

  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* admitted_counter_ = nullptr;
  telemetry::Counter* deferred_counter_ = nullptr;
  telemetry::Counter* rejected_counter_ = nullptr;
  telemetry::Gauge* limit_gauge_ = nullptr;
  /// Per-tenant control.tenant.<id>.{admitted,deferred,rejected} counters,
  /// created lazily as tenants appear in the arrival stream.
  struct TenantCounters {
    telemetry::Counter* admitted = nullptr;
    telemetry::Counter* deferred = nullptr;
    telemetry::Counter* rejected = nullptr;
  };
  std::unordered_map<std::size_t, TenantCounters> tenant_counters_;
};

}  // namespace mrs::control
