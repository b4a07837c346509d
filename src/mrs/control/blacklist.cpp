#include "mrs/control/blacklist.hpp"

#include <algorithm>

namespace mrs::control {

NodeBlacklist::NodeBlacklist(std::size_t node_count, BlacklistConfig cfg)
    : cfg_(cfg), nodes_(node_count) {
  if (cfg_.enabled) {
    MRS_REQUIRE(cfg_.failure_threshold >= 1);
    MRS_REQUIRE(cfg_.probation > 0.0);
  }
}

void NodeBlacklist::note_failure(NodeId node, Seconds now) {
  if (!cfg_.enabled) return;
  NodeInfo& n = info(node);
  // Any failure invalidates a pending probation end: if the node was in
  // probation, the restarted clock begins at its next recovery.
  ++n.epoch;
  if (cfg_.window > 0.0) {
    const Seconds cutoff = now - cfg_.window;
    n.failure_times.erase(
        std::remove_if(n.failure_times.begin(), n.failure_times.end(),
                       [cutoff](Seconds t) { return t < cutoff; }),
        n.failure_times.end());
  }
  n.failure_times.push_back(now);
  if (!n.listed && n.failure_times.size() >= cfg_.failure_threshold) {
    n.listed = true;
    ++entries_;
  }
}

Seconds NodeBlacklist::start_probation_on_recovery(NodeId node,
                                                   std::uint64_t* epoch_out) {
  if (!cfg_.enabled) return 0.0;
  NodeInfo& n = info(node);
  if (!n.listed) return 0.0;
  ++n.epoch;
  if (epoch_out != nullptr) *epoch_out = n.epoch;
  return cfg_.probation;
}

bool NodeBlacklist::end_probation(NodeId node, std::uint64_t epoch) {
  NodeInfo& n = info(node);
  if (!n.listed || n.epoch != epoch) return false;
  n.listed = false;
  ++exits_;
  return true;
}

}  // namespace mrs::control
