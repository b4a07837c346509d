// Implementing your own task scheduler against the public API.
//
// On every heartbeat the engine offers the node's free map slot to
// TaskScheduler::offer_map and its free reduce slot to offer_reduce (at
// most one of each per heartbeat); the scheduler inspects jobs/cluster
// through the Engine facade and commits at most one placement per offer
// with assign_map / assign_reduce. This example builds a
// "power of two choices" scheduler: for each slot it samples two candidate
// tasks and takes the one with the lower transmission cost — a classic
// load-balancing trick the paper's related work alludes to — and races it
// against the built-in probabilistic scheduler.
#include <cstdio>

#include "mrs/core/cost_model.hpp"
#include "mrs/driver/experiment.hpp"
#include "mrs/mapreduce/job_policy.hpp"
#include "mrs/metrics/summary.hpp"

namespace {

using namespace mrs;

class PowerOfTwoScheduler final : public mapreduce::TaskScheduler {
 public:
  explicit PowerOfTwoScheduler(Rng rng) : rng_(std::move(rng)) {}

  const char* name() const override { return "power-of-two"; }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override {
    for (auto* job :
         mapreduce::jobs_for_maps(engine, mapreduce::JobOrder::kFair)) {
      // Local task? Take it (cost 0 cannot be beaten).
      const std::size_t local = job->next_local_map(node);
      if (local < job->map_count()) {
        engine.assign_map(*job, local, node);
        return;
      }
      // Otherwise sample two candidates and take the cheaper (Eq. 1).
      const auto unassigned = job->unassigned_maps();
      if (unassigned.empty()) continue;
      const std::size_t a = unassigned[rng_.index(unassigned.size())];
      const std::size_t b = unassigned[rng_.index(unassigned.size())];
      const std::size_t pick = engine.map_cost(*job, a, node) <=
                                       engine.map_cost(*job, b, node)
                                   ? a
                                   : b;
      engine.assign_map(*job, pick, node);
      return;
    }
  }

  void offer_reduce(mapreduce::Engine& engine, NodeId node) override {
    for (auto* job :
         mapreduce::jobs_for_reduces(engine, mapreduce::JobOrder::kFair)) {
      if (job->has_reduce_on(node)) continue;
      const auto unassigned = job->unassigned_reduces();
      if (unassigned.empty()) continue;
      // Two random reduce candidates, scored with the paper's Eq. 3
      // estimator through the public cost evaluator.
      const core::ReduceCostEvaluator eval(
          engine, *job, core::EstimatorMode::kProjected, {node});
      const std::size_t a = unassigned[rng_.index(unassigned.size())];
      const std::size_t b = unassigned[rng_.index(unassigned.size())];
      const std::size_t pick = eval.cost(0, a) <= eval.cost(0, b) ? a : b;
      engine.assign_reduce(*job, pick, node);
      return;
    }
  }

  Rng rng_;
};

}  // namespace

int main() {
  using namespace mrs;
  std::vector<workload::JobDescription> jobs = {
      workload::table2_catalog()[0],   // Wordcount_10GB
      workload::table2_catalog()[10],  // Terasort_10GB
      workload::table2_catalog()[20],  // Grep_10GB
  };

  // The driver runs built-in schedulers; for a custom one we assemble the
  // experiment pieces ourselves (same wiring run_experiment does).
  auto run_custom = [&jobs] {
    const Rng root(21);
    const auto topo = net::make_single_rack(60, units::Gbps(1));
    dfs::BlockStore store(topo.host_count());
    dfs::BlockPlacer placer(&topo, root.split("placement"));
    workload::WorkloadConfig wcfg;
    const auto specs = workload::make_batch(jobs, store, placer, wcfg);
    sim::Simulation simulation;
    cluster::Cluster clstr(&topo, {}, root.split("cluster"));
    sim::NetworkService network(&simulation, &topo);
    net::HopDistanceProvider distance(topo);
    mapreduce::Engine engine(&simulation, &clstr, &store, &network,
                             &distance, {});
    std::size_t i = 0;
    for (const auto& spec : specs) {
      engine.submit(spec, root.split("job" + std::to_string(i++)));
    }
    PowerOfTwoScheduler sched(root.split("scheduler"));
    engine.set_scheduler(&sched);
    engine.start();
    simulation.run(1e7);
    RunningStats jct;
    for (const auto& j : engine.job_records()) jct.add(j.completion_time());
    return jct.mean();
  };

  const double custom_jct = run_custom();
  const auto pna_result = driver::run_experiment(
      driver::paper_config(jobs, driver::SchedulerKind::kPna, 21));
  RunningStats pna_jct;
  for (const auto& j : pna_result.job_records) {
    pna_jct.add(j.completion_time());
  }

  std::printf("custom power-of-two scheduler: mean JCT %.1fs\n", custom_jct);
  std::printf("built-in probabilistic (PNA):  mean JCT %.1fs\n",
              pna_jct.mean());
  std::printf("\nsee examples/custom_scheduler.cpp for how to plug a new\n"
              "TaskScheduler into the engine.\n");
  return 0;
}
