// Walk through the paper's cost model on a live cluster (Sec. II-B):
//  1. build a multi-rack topology and show the hop distance matrix H,
//  2. add background cross-traffic and show the network-condition variant
//     (inverse transmission rates, Sec. II-B-3) diverging from hops,
//  3. run the NAS/SAN-motivated scenario — all data on a subset of nodes —
//     and show how the probabilistic scheduler's placements respond.
#include <cstdio>

#include "mrs/driver/experiment.hpp"
#include "mrs/metrics/summary.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/net/link_condition.hpp"

int main() {
  using namespace mrs;

  // --- 1. topology and the hop matrix H ------------------------------
  net::TreeTopologyConfig tcfg;
  tcfg.racks = 2;
  tcfg.hosts_per_rack = 3;
  const net::Topology topo = net::make_multi_rack_tree(tcfg);
  std::printf("2 racks x 3 nodes; hop distance matrix H (Eq. 1):\n    ");
  for (std::size_t b = 0; b < topo.host_count(); ++b) {
    std::printf("  D%zu", b + 1);
  }
  std::printf("\n");
  for (std::size_t a = 0; a < topo.host_count(); ++a) {
    std::printf("  D%zu", a + 1);
    for (std::size_t b = 0; b < topo.host_count(); ++b) {
      std::printf("  %2zu", topo.hops(NodeId(a), NodeId(b)));
    }
    std::printf("\n");
  }

  // --- 2. network condition: inverse-rate distances ------------------
  net::BackgroundTrafficConfig bg;
  bg.mean_utilization = 0.35;
  bg.burst_utilization = 0.4;
  bg.burst_probability = 0.3;
  bg.uplinks_only = false;
  net::LinkConditionModel cond(&topo, bg, Rng(7));
  std::printf(
      "\nwith cross-traffic, h_ab becomes the inverse path rate "
      "(Sec. II-B-3):\n    ");
  for (std::size_t b = 0; b < topo.host_count(); ++b) {
    std::printf("    D%zu", b + 1);
  }
  std::printf("\n");
  for (std::size_t a = 0; a < topo.host_count(); ++a) {
    std::printf("  D%zu", a + 1);
    for (std::size_t b = 0; b < topo.host_count(); ++b) {
      std::printf(" %5.1f",
                  cond.weighted_path_distance(NodeId(a), NodeId(b)));
    }
    std::printf("\n");
  }
  std::printf("(an uncongested hop costs 1.0; congested paths look longer,\n"
              " so the scheduler routes tasks around them)\n");

  // --- 3. the NAS/SAN scenario ---------------------------------------
  std::printf(
      "\nNAS/SAN scenario: every replica lives on 25%% of the nodes;\n"
      "comparing fair vs probabilistic placement under cross-traffic...\n");
  std::vector<workload::JobDescription> jobs = {
      workload::table2_catalog()[20],  // Grep_10GB
      workload::table2_catalog()[0],   // Wordcount_10GB
  };
  std::vector<driver::ExperimentConfig> cfgs;
  for (auto kind :
       {driver::SchedulerKind::kFair, driver::SchedulerKind::kPna}) {
    auto cfg = driver::paper_config(jobs, kind, 11);
    cfg.workload.placement = dfs::PlacementPolicy::kSkewed;
    cfgs.push_back(cfg);
  }
  const auto results = driver::run_experiments(cfgs);
  for (const auto& r : results) {
    RunningStats jct;
    for (const auto& j : r.job_records) jct.add(j.completion_time());
    const auto loc = metrics::locality_summary(
        r.task_records, metrics::TaskFilter::kMapsOnly);
    std::printf(
        "  %-14s mean JCT %6.1fs | %4.1f%% node-local maps | "
        "%4.1f%% of maps moved data\n",
        r.scheduler_name.c_str(), jct.mean(), loc.node_local_pct,
        100.0 - loc.node_local_pct);
  }
  std::printf(
      "\nFair waits for slots on the few data-holding nodes; the\n"
      "probabilistic scheduler instead weighs that wait against the\n"
      "measured transfer cost and streams remote input when the path is\n"
      "cheap — trading locality for slot utilization, the balance the\n"
      "paper's P_min knob controls (see bench_paper pmin_sweep).\n");
  return 0;
}
