#include "mrs/core/pna_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/trace/decision.hpp"

namespace mrs::core {

using mapreduce::Engine;
using mapreduce::JobOrder;
using mapreduce::JobRun;
using mapreduce::jobs_for_maps;
using mapreduce::jobs_for_reduces;
using trace::DecisionOutcome;

PnaScheduler::PnaScheduler(PnaConfig cfg, Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  MRS_REQUIRE(cfg_.p_min >= 0.0 && cfg_.p_min < 1.0);
  MRS_REQUIRE(cfg_.cost_mix >= 0.0 && cfg_.cost_mix <= 1.0);
}

void PnaScheduler::set_telemetry(telemetry::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  telemetry::Registry& r = *registry;
  metrics_.map_attempts = &r.counter("pna.map.attempts");
  metrics_.map_candidates = &r.counter("pna.map.candidates_scanned");
  metrics_.map_cost_evals = &r.counter("pna.map.cost_evals");
  metrics_.map_local_fastpath = &r.counter("pna.map.local_fastpath");
  metrics_.map_pmin_skips = &r.counter("pna.map.pmin_skips");
  metrics_.map_bernoulli_rejects = &r.counter("pna.map.bernoulli_rejects");
  metrics_.reduce_attempts = &r.counter("pna.reduce.attempts");
  metrics_.reduce_candidates = &r.counter("pna.reduce.candidates_scanned");
  metrics_.reduce_cost_evals = &r.counter("pna.reduce.cost_evals");
  metrics_.reduce_pmin_skips = &r.counter("pna.reduce.pmin_skips");
  metrics_.reduce_bernoulli_rejects =
      &r.counter("pna.reduce.bernoulli_rejects");
  // 21 buckets of 0.05: the last bucket [1.0, 1.05) isolates draws with
  // P exactly 1 (zero-cost placements outside the local fast path).
  metrics_.map_p = &r.histogram("pna.map.p", 0.0, 1.05, 21);
  metrics_.reduce_p = &r.histogram("pna.reduce.p", 0.0, 1.05, 21);
  metrics_.score_wall = &r.timer("pna.score_wall");
}

void PnaScheduler::on_heartbeat(Engine& engine, NodeId node) {
  // One map and one reduce offer per heartbeat (the engine's budget of
  // one each), made to the first job in fair order (Hadoop's default job
  // policy). A failed draw or P_min skip ends the offer: Algorithm 1
  // Line 11 and Algorithm 2 Line 12 return. Speculation may already have
  // spent the map budget.
  if (engine.map_budget_left() > 0 &&
      engine.cluster().node(node).free_map_slots() > 0) {
    const auto jobs = jobs_for_maps(engine, JobOrder::kFair);
    if (!jobs.empty()) schedule_map(engine, *jobs.front(), node);
  }
  // Algorithm 2, Line 1: never run two reduce tasks of one job on a node,
  // so the offer goes to the first job without a reduce here.
  if (engine.cluster().node(node).free_reduce_slots() > 0) {
    for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
      if (job->has_reduce_on(node)) continue;
      schedule_reduce(engine, *job, node);
      break;
    }
  }
}

bool PnaScheduler::schedule_map(Engine& engine, JobRun& job, NodeId node) {
  ++map_attempts_;
  telemetry::inc(metrics_.map_attempts);

  // Fast path: a task with a local replica has cost 0 and therefore P = 1,
  // the maximum any candidate can reach — assign it outright (Sec. II-C:
  // "if the data is available in D_i ... the task is always assigned").
  // Only sound for the pure network cost: with a compute term blended in,
  // a local task on a slow node is no longer free.
  if (cfg_.cost_mix == 0.0) {
    const std::size_t local = job.next_local_map(node);
    if (local < job.map_count()) {
      telemetry::inc(metrics_.map_local_fastpath);
      engine.assign_map(job, local, node);
      if (decisions_ != nullptr) {
        trace::PlacementDecisionRecord rec;
        rec.time = engine.now();
        rec.is_map = true;
        rec.job = job.id();
        rec.task = local;
        rec.node = node;
        rec.free_nodes = engine.cluster().nodes_with_free_map_slots().size();
        rec.p = 1.0;
        rec.locality = static_cast<int>(job.map_state(local).locality);
        rec.outcome = DecisionOutcome::kLocalFastPath;
        decisions_->record(rec);
      }
      return true;
    }
  }

  // Full Algorithm 1: score every unassigned candidate.
  const std::vector<NodeId>& n_m =
      engine.cluster().nodes_with_free_map_slots();
  MRS_ASSERT(!n_m.empty());  // `node` itself has a free map slot

  double best_p = -1.0;
  double best_c = 0.0;
  double best_c_ave = 0.0;
  std::size_t best_task = job.map_count();
  std::uint64_t candidates = 0;
  // Costs come from the job's static replica-distance cache. B_j scales
  // cost and average identically, so it cancels out of the ratio
  // C_ave / C_ij — work with raw distances.
  // Fast C_ave: the per-task row sum over N_m is maintained incrementally
  // (patched by +/- distance on free-set toggles). Only provably exact —
  // and therefore only enabled — for integral static distances, where the
  // patched double sum is bit-identical to the naive rescan below.
  const bool incremental =
      cfg_.incremental_scoring && job.static_costs_integral();
  // Combined cost mode: per-node compute speeds enter both sides of the
  // ratio. The inverse-speed sum over N_m depends only on the free set,
  // so it is computed once per decision.
  const double mix = cfg_.cost_mix;
  double inv_speed_sum = 0.0;
  double node_speed = 1.0;
  if (mix > 0.0) {
    for (NodeId k : n_m) {
      inv_speed_sum += 1.0 / engine.cluster().node(k).speed_factor;
    }
    node_speed = engine.cluster().node(node).speed_factor;
  }
  {
    telemetry::ScopedTimer score_timer(metrics_.score_wall);
    if (incremental) job.sync_free_map_sums(engine.cluster());
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      if (job.map_state(j).phase != mapreduce::MapPhase::kUnassigned) {
        continue;
      }
      ++candidates;
      double c_ij = job.static_min_distance(j, node);             // Line 4
      double c_sum = 0.0;                                         // Line 6
      if (incremental) {
        c_sum = job.static_free_map_sum(j);
      } else {
        for (NodeId k : n_m) c_sum += job.static_min_distance(j, k);
      }
      if (mix > 0.0) {
        // Blend into estimated seconds. The distance terms above are
        // identical across the incremental/naive branches, and the blend
        // is applied to them with the same scale factors — so the
        // fast-vs-naive byte identity survives the mix.
        const double bytes = job.spec().map_tasks[j].input_size;
        const double net_scale = bytes / kReferenceBandwidth;
        const double comp_scale = bytes / job.spec().map_rate;
        c_ij = (1.0 - mix) * net_scale * c_ij +
               mix * comp_scale / node_speed;
        c_sum = (1.0 - mix) * net_scale * c_sum +
                mix * comp_scale * inv_speed_sum;
      }
      const double c_ave = c_sum / static_cast<double>(n_m.size());
      const double p = assignment_probability(c_ij, c_ave, cfg_.model);
      if (p > best_p) {
        best_p = p;
        best_c = c_ij;
        best_c_ave = c_ave;
        best_task = j;
      }
    }
  }
  telemetry::inc(metrics_.map_candidates, candidates);
  // Per candidate: C_ij once plus (on the naive path) one term per node
  // with a free map slot; the incremental path reads one cached sum.
  telemetry::inc(metrics_.map_cost_evals,
                 candidates * (incremental ? 2 : 1 + n_m.size()));
  // Decision records are pure observation: fields are filled from values
  // the scan already computed, and the Bernoulli draw below is untouched.
  const auto record_map = [&](DecisionOutcome outcome, int locality) {
    trace::PlacementDecisionRecord rec;
    rec.time = engine.now();
    rec.is_map = true;
    rec.job = job.id();
    rec.task = best_task < job.map_count() ? best_task : SIZE_MAX;
    rec.node = node;
    rec.candidates = candidates;
    rec.free_nodes = n_m.size();
    rec.cost = best_c;
    rec.cost_avg = best_c_ave;
    rec.p = best_p;
    rec.locality = locality;
    rec.outcome = outcome;
    decisions_->record(rec);
  };
  if (best_task == job.map_count()) {  // no unassigned task
    if (decisions_ != nullptr) {
      record_map(DecisionOutcome::kNoCandidate, -1);
    }
    return false;
  }

  telemetry::observe(metrics_.map_p, best_p);
  if (best_p < cfg_.p_min) {  // Lines 10-12: too costly, skip this node
    ++map_skips_;
    telemetry::inc(metrics_.map_pmin_skips);
    if (decisions_ != nullptr) {
      record_map(DecisionOutcome::kPminSkip,
                 static_cast<int>(engine.map_locality(job, best_task, node)));
    }
    return false;
  }
  if (!rng_.bernoulli(best_p)) {  // Lines 13-16
    ++map_skips_;
    telemetry::inc(metrics_.map_bernoulli_rejects);
    if (decisions_ != nullptr) {
      record_map(DecisionOutcome::kBernoulliReject,
                 static_cast<int>(engine.map_locality(job, best_task, node)));
    }
    return false;
  }
  engine.assign_map(job, best_task, node);
  if (decisions_ != nullptr) {
    record_map(DecisionOutcome::kAssigned,
               static_cast<int>(job.map_state(best_task).locality));
  }
  return true;
}

bool PnaScheduler::schedule_reduce(Engine& engine, JobRun& job, NodeId node) {
  ++reduce_attempts_;
  telemetry::inc(metrics_.reduce_attempts);

  const std::vector<NodeId>& n_r =
      engine.cluster().nodes_with_free_reduce_slots();
  MRS_ASSERT(!n_r.empty());
  // The free index is sorted ascending, so self lookup is a binary search.
  const auto self = std::lower_bound(n_r.begin(), n_r.end(), node);
  MRS_ASSERT(self != n_r.end() && *self == node);
  const auto self_index = static_cast<std::size_t>(self - n_r.begin());

  const std::vector<std::size_t> unassigned = job.unassigned_reduces();
  reduce_eval_.reset(engine, job, cfg_.estimator, n_r, unassigned);
  const ReduceCostEvaluator& eval = reduce_eval_;

  const double mix = cfg_.cost_mix;
  double inv_speed_sum = 0.0;
  double node_speed = 1.0;
  if (mix > 0.0) {
    for (NodeId k : n_r) {
      inv_speed_sum += 1.0 / engine.cluster().node(k).speed_factor;
    }
    node_speed = engine.cluster().node(node).speed_factor;
  }

  double best_p = -1.0;
  double best_c = 0.0;
  double best_c_ave = 0.0;
  std::size_t best_task = job.reduce_count();
  std::uint64_t candidates = 0;
  {
    telemetry::ScopedTimer score_timer(metrics_.score_wall);
    for (std::size_t f : unassigned) {
      ++candidates;
      double c_if = eval.cost(self_index, f);    // Line 5 (Eq. 3)
      double c_ave = eval.average_cost(f);       // Line 7
      if (mix > 0.0) {
        // Same blend as the map side: shuffle transfer seconds plus the
        // sort+reduce compute seconds at the candidate's speed.
        const double comp_scale =
            eval.snapshot().total_for(f) / job.spec().reduce_rate;
        c_if = (1.0 - mix) * c_if / kReferenceBandwidth +
               mix * comp_scale / node_speed;
        c_ave = (1.0 - mix) * c_ave / kReferenceBandwidth +
                mix * comp_scale * inv_speed_sum /
                    static_cast<double>(n_r.size());
      }
      const double p = assignment_probability(c_if, c_ave, cfg_.model);
      if (p > best_p) {
        best_p = p;
        best_c = c_if;
        best_c_ave = c_ave;
        best_task = f;
      }
    }
  }
  telemetry::inc(metrics_.reduce_candidates, candidates);
  // Per candidate: C_if at this node plus the average over all nodes with
  // a free reduce slot (Eq. 3 evaluated once per node by the evaluator).
  telemetry::inc(metrics_.reduce_cost_evals, candidates * (1 + n_r.size()));
  const auto record_reduce = [&](DecisionOutcome outcome, int locality) {
    trace::PlacementDecisionRecord rec;
    rec.time = engine.now();
    rec.is_map = false;
    rec.job = job.id();
    rec.task = best_task < job.reduce_count() ? best_task : SIZE_MAX;
    rec.node = node;
    rec.candidates = candidates;
    rec.free_nodes = n_r.size();
    rec.cost = best_c;
    rec.cost_avg = best_c_ave;
    rec.p = best_p;
    rec.locality = locality;
    rec.outcome = outcome;
    decisions_->record(rec);
  };
  if (best_task == job.reduce_count()) {
    if (decisions_ != nullptr) {
      record_reduce(DecisionOutcome::kNoCandidate, -1);
    }
    return false;
  }

  telemetry::observe(metrics_.reduce_p, best_p);
  if (best_p < cfg_.p_min) {  // Lines 11-13
    ++reduce_skips_;
    telemetry::inc(metrics_.reduce_pmin_skips);
    if (decisions_ != nullptr) record_reduce(DecisionOutcome::kPminSkip, -1);
    return false;
  }
  if (!rng_.bernoulli(best_p)) {  // Lines 14-17
    ++reduce_skips_;
    telemetry::inc(metrics_.reduce_bernoulli_rejects);
    if (decisions_ != nullptr) {
      record_reduce(DecisionOutcome::kBernoulliReject, -1);
    }
    return false;
  }
  engine.assign_reduce(job, best_task, node);
  if (decisions_ != nullptr) {
    record_reduce(
        DecisionOutcome::kAssigned,
        static_cast<int>(job.reduce_state(best_task).locality));
  }
  return true;
}

}  // namespace mrs::core
