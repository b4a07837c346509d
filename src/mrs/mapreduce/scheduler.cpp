#include "mrs/mapreduce/scheduler.hpp"

#include "mrs/mapreduce/engine.hpp"

namespace mrs::mapreduce {

void TaskScheduler::on_heartbeat(Engine& engine, NodeId node) {
  // One offer per kind: a successful assignment spends the heartbeat's
  // budget of one, and a declined offer ends the heartbeat for that kind
  // (Algorithm 1 Line 11, Algorithm 2 Line 12). Speculation may already
  // have spent the map budget.
  if (engine.map_budget_left() > 0 &&
      engine.cluster().node(node).free_map_slots() > 0) {
    offer_map(engine, node);
  }
  if (engine.reduce_budget_left() > 0 &&
      engine.cluster().node(node).free_reduce_slots() > 0) {
    offer_reduce(engine, node);
  }
}

trace::PlacementDecisionRecord TaskScheduler::offer_record(
    const Engine& engine, bool is_map, NodeId node) {
  trace::PlacementDecisionRecord rec;
  rec.time = engine.now();
  rec.is_map = is_map;
  rec.node = node;
  rec.free_nodes = is_map
                       ? engine.cluster().nodes_with_free_map_slots().size()
                       : engine.cluster().nodes_with_free_reduce_slots().size();
  return rec;
}

}  // namespace mrs::mapreduce
