#include "mrs/control/admission.hpp"

#include <algorithm>
#include <limits>

#include "mrs/common/strfmt.hpp"

namespace mrs::control {

namespace {

constexpr std::size_t kNoOutcome = std::numeric_limits<std::size_t>::max();

class AlwaysAdmitPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] const char* name() const override {
    return to_string(AdmissionPolicyKind::kAlwaysAdmit);
  }
  [[nodiscard]] AdmissionAction decide(const AdmissionObservables&) override {
    return AdmissionAction::kAdmit;
  }
};

class StaticThresholdPolicy final : public AdmissionPolicy {
 public:
  explicit StaticThresholdPolicy(const AdmissionConfig& cfg)
      : max_jobs_(cfg.max_jobs_in_system),
        max_delay_(cfg.max_queueing_delay) {}

  [[nodiscard]] const char* name() const override {
    return to_string(AdmissionPolicyKind::kStaticThreshold);
  }
  [[nodiscard]] AdmissionAction decide(
      const AdmissionObservables& obs) override {
    if (max_jobs_ > 0.0 &&
        static_cast<double>(obs.jobs_in_system) >= max_jobs_) {
      return AdmissionAction::kDefer;
    }
    if (max_delay_ > 0.0 && obs.queueing_delay_ewma > max_delay_) {
      return AdmissionAction::kDefer;
    }
    return AdmissionAction::kAdmit;
  }
  [[nodiscard]] double backlog_limit() const override { return max_jobs_; }

 private:
  double max_jobs_;
  Seconds max_delay_;
};

class TokenBucketPolicy final : public AdmissionPolicy {
 public:
  explicit TokenBucketPolicy(const AdmissionConfig& cfg)
      : rate_per_sec_(cfg.bucket_rate_per_hour / 3600.0),
        capacity_(cfg.bucket_capacity),
        tokens_(cfg.bucket_capacity) {
    MRS_REQUIRE(rate_per_sec_ > 0.0 && capacity_ >= 1.0);
  }

  [[nodiscard]] const char* name() const override {
    return to_string(AdmissionPolicyKind::kTokenBucket);
  }
  [[nodiscard]] AdmissionAction decide(
      const AdmissionObservables& obs) override {
    tokens_ = std::min(capacity_,
                       tokens_ + rate_per_sec_ * (obs.now - last_refill_));
    last_refill_ = obs.now;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return AdmissionAction::kAdmit;
    }
    return AdmissionAction::kDefer;
  }

 private:
  double rate_per_sec_;
  double capacity_;
  double tokens_;
  Seconds last_refill_ = 0.0;
};

/// AIMD on the backlog limit: every realized queueing-delay sample above
/// target multiplies the limit down, every sample below it adds a small
/// step back — the limit converges to the largest backlog the cluster can
/// carry while keeping first-assignment delays near the target.
class AdaptivePolicy final : public AdmissionPolicy {
 public:
  explicit AdaptivePolicy(const AdmissionConfig& cfg)
      : target_(cfg.adaptive_target_delay),
        min_limit_(cfg.adaptive_min_limit),
        max_limit_(cfg.adaptive_max_limit),
        step_(cfg.adaptive_step),
        decrease_(cfg.adaptive_decrease),
        limit_(std::clamp(cfg.max_jobs_in_system, cfg.adaptive_min_limit,
                          cfg.adaptive_max_limit)) {
    MRS_REQUIRE(target_ > 0.0);
    MRS_REQUIRE(min_limit_ >= 1.0 && max_limit_ >= min_limit_);
    MRS_REQUIRE(step_ > 0.0);
    MRS_REQUIRE(decrease_ > 0.0 && decrease_ < 1.0);
  }

  [[nodiscard]] const char* name() const override {
    return to_string(AdmissionPolicyKind::kAdaptive);
  }
  [[nodiscard]] AdmissionAction decide(
      const AdmissionObservables& obs) override {
    return static_cast<double>(obs.jobs_in_system) >= limit_
               ? AdmissionAction::kDefer
               : AdmissionAction::kAdmit;
  }
  void on_queueing_delay(Seconds delay) override {
    limit_ = delay > target_
                 ? std::max(min_limit_, limit_ * decrease_)
                 : std::min(max_limit_, limit_ + step_);
  }
  [[nodiscard]] double backlog_limit() const override { return limit_; }

 private:
  Seconds target_;
  double min_limit_;
  double max_limit_;
  double step_;
  double decrease_;
  double limit_;
};

}  // namespace

std::unique_ptr<AdmissionPolicy> make_policy(const AdmissionConfig& cfg) {
  switch (cfg.policy) {
    case AdmissionPolicyKind::kAlwaysAdmit:
      return std::make_unique<AlwaysAdmitPolicy>();
    case AdmissionPolicyKind::kStaticThreshold:
      return std::make_unique<StaticThresholdPolicy>(cfg);
    case AdmissionPolicyKind::kTokenBucket:
      return std::make_unique<TokenBucketPolicy>(cfg);
    case AdmissionPolicyKind::kAdaptive:
      return std::make_unique<AdaptivePolicy>(cfg);
  }
  MRS_REQUIRE(false && "unknown admission policy kind");
  return nullptr;
}

AdmissionController::AdmissionController(AdmissionConfig cfg)
    : cfg_(std::move(cfg)), policy_(make_policy(cfg_)) {
  MRS_REQUIRE(cfg_.deferral.initial_backoff > 0.0);
  MRS_REQUIRE(cfg_.deferral.max_backoff >= cfg_.deferral.initial_backoff);
  MRS_REQUIRE(cfg_.delay_ewma_alpha > 0.0 && cfg_.delay_ewma_alpha <= 1.0);
  if (!cfg_.tenant_quota_weights.empty()) {
    MRS_REQUIRE(cfg_.max_jobs_in_system > 0.0);
    for (const double w : cfg_.tenant_quota_weights) {
      MRS_REQUIRE(w > 0.0);
      quota_weight_sum_ += w;
    }
  }
}

void AdmissionController::set_telemetry(telemetry::Registry* registry) {
  registry_ = registry;
  tenant_counters_.clear();
  if (registry == nullptr) {
    admitted_counter_ = deferred_counter_ = rejected_counter_ = nullptr;
    limit_gauge_ = nullptr;
    return;
  }
  admitted_counter_ = &registry->counter("control.jobs.admitted");
  deferred_counter_ = &registry->counter("control.jobs.deferred");
  rejected_counter_ = &registry->counter("control.jobs.rejected");
  limit_gauge_ = &registry->gauge("control.backlog_limit");
  if (limit_gauge_ != nullptr) limit_gauge_->set(policy_->backlog_limit());
}

double AdmissionController::tenant_quota_limit(TenantId tenant) const {
  if (cfg_.tenant_quota_weights.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  // Tenants outside the configured weight table share as if weight 1 —
  // quotas stay well-defined when a trace names more tenants than the
  // config anticipated.
  const double w = tenant.value() < cfg_.tenant_quota_weights.size()
                       ? cfg_.tenant_quota_weights[tenant.value()]
                       : 1.0;
  return cfg_.max_jobs_in_system * w / std::max(quota_weight_sum_, w);
}

void AdmissionController::count_tenant_outcome(TenantId tenant,
                                               AdmissionAction action) {
  if (registry_ == nullptr) return;
  auto [it, inserted] = tenant_counters_.emplace(tenant.value(),
                                                TenantCounters{});
  if (inserted) {
    const std::size_t t = tenant.value();
    it->second.admitted =
        &registry_->counter(strf("control.tenant.%zu.admitted", t));
    it->second.deferred =
        &registry_->counter(strf("control.tenant.%zu.deferred", t));
    it->second.rejected =
        &registry_->counter(strf("control.tenant.%zu.rejected", t));
  }
  switch (action) {
    case AdmissionAction::kAdmit: telemetry::inc(it->second.admitted); break;
    case AdmissionAction::kDefer: telemetry::inc(it->second.deferred); break;
    case AdmissionAction::kReject: telemetry::inc(it->second.rejected); break;
  }
}

Seconds AdmissionController::backoff_for(std::size_t deferrals_so_far) const {
  Seconds backoff = cfg_.deferral.initial_backoff;
  for (std::size_t i = 0; i < deferrals_so_far; ++i) {
    backoff *= 2.0;
    if (backoff >= cfg_.deferral.max_backoff) break;
  }
  return std::min(backoff, cfg_.deferral.max_backoff);
}

AdmissionDecision AdmissionController::on_arrival(JobId job,
                                                 Seconds arrival_time,
                                                 std::size_t attempt,
                                                 AdmissionObservables obs) {
  // Ledger slot: created at the first attempt, reused on retries.
  if (outcome_index_.size() <= job.value()) {
    outcome_index_.resize(job.value() + 1, kNoOutcome);
  }
  if (outcome_index_[job.value()] == kNoOutcome) {
    MRS_REQUIRE(attempt == 0);
    outcome_index_[job.value()] = outcomes_.size();
    outcomes_.push_back(
        {job, obs.tenant, arrival_time, arrival_time, 0, false, false});
  }
  ArrivalOutcome& outcome = outcomes_[outcome_index_[job.value()]];
  MRS_REQUIRE(!outcome.resolved);
  if (attempt > 0) {
    MRS_REQUIRE(deferred_now_ > 0);
    --deferred_now_;  // the arrival left the deferral queue to retry
  }

  obs.queueing_delay_ewma = delay_ewma_;
  AdmissionAction action = policy_->decide(obs);
  // Quota gate: an arrival whose tenant already holds its weighted share
  // of the backlog budget is deferred even when the policy would admit —
  // the deferral budget below still turns a persistent overage into a
  // hard reject. A no-op when tenant_quota_weights is empty (limit +inf).
  if (action == AdmissionAction::kAdmit &&
      static_cast<double>(obs.tenant_jobs_in_system) >=
          tenant_quota_limit(obs.tenant)) {
    action = AdmissionAction::kDefer;
  }
  AdmissionDecision decision;
  if (action == AdmissionAction::kDefer &&
      outcome.deferrals >= cfg_.deferral.max_deferrals) {
    action = AdmissionAction::kReject;  // deferral budget exhausted
  }
  decision.action = action;
  switch (action) {
    case AdmissionAction::kAdmit:
      outcome.resolved = true;
      outcome.admitted = true;
      outcome.decided_time = obs.now;
      ++admitted_;
      telemetry::inc(admitted_counter_);
      break;
    case AdmissionAction::kDefer:
      decision.retry_in = backoff_for(outcome.deferrals);
      ++outcome.deferrals;
      ++deferred_;
      ++deferred_now_;
      telemetry::inc(deferred_counter_);
      break;
    case AdmissionAction::kReject:
      outcome.resolved = true;
      outcome.admitted = false;
      outcome.decided_time = obs.now;
      ++rejected_;
      telemetry::inc(rejected_counter_);
      break;
  }
  count_tenant_outcome(obs.tenant, action);
  if (limit_gauge_ != nullptr) limit_gauge_->set(policy_->backlog_limit());
  return decision;
}

void AdmissionController::note_queueing_delay(Seconds delay) {
  delay_ewma_ = delay_seen_
                    ? (1.0 - cfg_.delay_ewma_alpha) * delay_ewma_ +
                          cfg_.delay_ewma_alpha * delay
                    : delay;
  delay_seen_ = true;
  policy_->on_queueing_delay(delay);
  if (limit_gauge_ != nullptr) limit_gauge_->set(policy_->backlog_limit());
}

}  // namespace mrs::control
