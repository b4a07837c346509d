#include "mrs/core/pna_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "mrs/mapreduce/job_policy.hpp"

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

void PnaScheduler::offer_map(Engine& engine, NodeId node) {
  // The offer goes to the first job in fair order (Hadoop's default job
  // policy). A failed draw or P_min skip ends it: Algorithm 1 Line 11
  // returns.
  const auto jobs = jobs_for_maps(engine, JobOrder::kFair);
  if (jobs.empty()) return;
  JobRun& job = *jobs.front();
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
      record(engine, /*is_map=*/true, node, job, {.task = local, .p = 1.0},
             DecisionOutcome::kLocalFastPath);
      engine.assign_map(job, local, node);
      return;
    }
  }

  // Full Algorithm 1: score every unassigned candidate.
  const cluster::Cluster& clstr = engine.cluster();
  const net::Topology& topo = engine.topology();
  const std::vector<NodeId>& n_m = clstr.nodes_with_free_map_slots();
  MRS_ASSERT(!n_m.empty());  // `node` itself has a free map slot
  const net::Coords here = topo.coords_of(node);

  Best best{.task = job.map_count()};
  // Costs are hop counts to the nearest replica, from the job's replica
  // coordinates. B_j scales cost and average identically, so it cancels
  // out of the ratio C_ave / C_ij — work with raw hop counts. Fast C_ave:
  // the cluster's per-pod, per-rack and per-host counts of N_m give the
  // hop sum over N_m in closed form, an exact integer equal to the
  // pairwise loop below.
  const bool incremental = cfg_.incremental_scoring;
  // Combined cost mode: per-node compute speeds enter both sides of the
  // ratio. The inverse-speed sum over N_m depends only on the free set,
  // so it is computed once per decision.
  const double mix = cfg_.cost_mix;
  double inv_speed_sum = 0.0;
  double node_speed = 1.0;
  if (mix > 0.0) {
    for (NodeId k : n_m) inv_speed_sum += 1.0 / clstr.node(k).speed_factor;
    node_speed = clstr.node(node).speed_factor;
  }
  {
    telemetry::ScopedTimer score_timer(metrics_.score_wall);
    // P depends on C_ij and C_sum alone, and hop counts take few values,
    // so a candidate often repeats the previous one's costs: P is then
    // the same computation on the same inputs, and is reused.
    double last_c = -1.0;
    double last_sum = -1.0;
    double last_ave = 0.0;
    double last_p = 0.0;
    for (std::size_t j = 0; j < job.map_count(); ++j) {
      if (job.map_state(j).phase != mapreduce::MapPhase::kUnassigned) {
        continue;
      }
      ++best.candidates;
      const std::span<const std::uint32_t> coords = job.replica_coords(j);
      double c_ij =
          static_cast<double>(topo.nearest_hops(here, coords));  // Line 4
      double c_sum = 0.0;                                        // Line 6
      if (incremental) {
        c_sum = static_cast<double>(clstr.free_map_hops(coords));
      } else {
        for (NodeId k : n_m) {
          std::size_t h = std::numeric_limits<std::size_t>::max();
          for (NodeId l : engine.map_replicas(job, j)) {
            h = std::min(h, topo.hops(k, l));
          }
          c_sum += static_cast<double>(h);
        }
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
      if (c_ij != last_c || c_sum != last_sum) {
        last_c = c_ij;
        last_sum = c_sum;
        last_ave = c_sum / static_cast<double>(n_m.size());
        last_p = assignment_probability(c_ij, last_ave, cfg_.model);
      }
      if (last_p > best.p) {
        best.p = last_p;
        best.c = c_ij;
        best.c_ave = last_ave;
        best.task = j;
      }
    }
  }
  telemetry::inc(metrics_.map_candidates, best.candidates);
  // Per candidate: C_ij once plus (on the naive path) one term per node
  // with a free map slot; the incremental path reads one cached sum.
  telemetry::inc(metrics_.map_cost_evals,
                 best.candidates * (incremental ? 2 : 1 + n_m.size()));
  if (best.task == job.map_count()) {  // no unassigned task
    record(engine, /*is_map=*/true, node, job, best,
           DecisionOutcome::kNoCandidate);
    return;
  }

  telemetry::observe(metrics_.map_p, best.p);
  if (best.p < cfg_.p_min) {  // Lines 10-12: too costly, skip this node
    telemetry::inc(metrics_.map_pmin_skips);
    record(engine, /*is_map=*/true, node, job, best,
           DecisionOutcome::kPminSkip);
    return;
  }
  if (!rng_.bernoulli(best.p)) {  // Lines 13-16
    telemetry::inc(metrics_.map_bernoulli_rejects);
    record(engine, /*is_map=*/true, node, job, best,
           DecisionOutcome::kBernoulliReject);
    return;
  }
  record(engine, /*is_map=*/true, node, job, best, DecisionOutcome::kAssigned);
  engine.assign_map(job, best.task, node);
}

void PnaScheduler::offer_reduce(Engine& engine, NodeId node) {
  // Algorithm 2, Line 1: never run two reduce tasks of one job on a node,
  // so the offer goes to the first job in fair order without a reduce
  // here. A failed draw or P_min skip ends it (Line 12 returns).
  JobRun* first = nullptr;
  for (JobRun* job : jobs_for_reduces(engine, JobOrder::kFair)) {
    if (!job->has_reduce_on(node)) {
      first = job;
      break;
    }
  }
  if (first == nullptr) return;
  JobRun& job = *first;
  telemetry::inc(metrics_.reduce_attempts);

  const std::vector<NodeId>& n_r =
      engine.cluster().nodes_with_free_reduce_slots();
  MRS_ASSERT(!n_r.empty());
  const std::vector<std::size_t> unassigned = job.unassigned_reduces();
  reduce_eval_.reset(engine, job, cfg_.estimator, n_r, unassigned);
  const ReduceCostEvaluator& eval = reduce_eval_;
  const std::size_t self = eval.index_of(node);

  const double mix = cfg_.cost_mix;
  double inv_speed_sum = 0.0;
  double node_speed = 1.0;
  if (mix > 0.0) {
    for (NodeId k : n_r) {
      inv_speed_sum += 1.0 / engine.cluster().node(k).speed_factor;
    }
    node_speed = engine.cluster().node(node).speed_factor;
  }

  Best best{.task = job.reduce_count()};
  {
    telemetry::ScopedTimer score_timer(metrics_.score_wall);
    for (std::size_t f : unassigned) {
      ++best.candidates;
      double c_if = eval.cost(self, f);          // Line 5 (Eq. 3)
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
      if (p > best.p) {
        best.p = p;
        best.c = c_if;
        best.c_ave = c_ave;
        best.task = f;
      }
    }
  }
  telemetry::inc(metrics_.reduce_candidates, best.candidates);
  // Per candidate: C_if at this node plus the average over all nodes with
  // a free reduce slot (Eq. 3 evaluated once per node by the evaluator).
  telemetry::inc(metrics_.reduce_cost_evals,
                 best.candidates * (1 + n_r.size()));
  if (best.task == job.reduce_count()) {
    record(engine, /*is_map=*/false, node, job, best,
           DecisionOutcome::kNoCandidate);
    return;
  }

  telemetry::observe(metrics_.reduce_p, best.p);
  if (best.p < cfg_.p_min) {  // Lines 11-13
    telemetry::inc(metrics_.reduce_pmin_skips);
    record(engine, /*is_map=*/false, node, job, best,
           DecisionOutcome::kPminSkip);
    return;
  }
  if (!rng_.bernoulli(best.p)) {  // Lines 14-17
    telemetry::inc(metrics_.reduce_bernoulli_rejects);
    record(engine, /*is_map=*/false, node, job, best,
           DecisionOutcome::kBernoulliReject);
    return;
  }
  record(engine, /*is_map=*/false, node, job, best,
         DecisionOutcome::kAssigned);
  engine.assign_reduce(job, best.task, node);
}

void PnaScheduler::record(const Engine& engine, bool is_map, NodeId node,
                          const JobRun& job, Best best,
                          DecisionOutcome outcome) const {
  if (decisions_ == nullptr) return;
  auto rec = offer_record(engine, is_map, node);
  rec.job = job.id();
  rec.candidates = best.candidates;
  rec.cost = best.c;
  rec.cost_avg = best.c_ave;
  rec.p = best.p;
  rec.outcome = outcome;
  if (outcome != DecisionOutcome::kNoCandidate) {
    rec.task = best.task;
    if (is_map) {
      rec.locality =
          static_cast<int>(engine.map_locality(job, best.task, node));
    } else if (outcome == DecisionOutcome::kAssigned) {
      rec.locality = static_cast<int>(engine.reduce_locality(job, node));
    }
  }
  decisions_->record(rec);
}

}  // namespace mrs::core
