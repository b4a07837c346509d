#include "mrs/mapreduce/job_run.hpp"

#include <algorithm>
#include <cmath>

namespace mrs::mapreduce {

JobRun::JobRun(JobSpec spec, std::size_t node_count, Rng rng)
    : spec_(std::move(spec)), node_count_(node_count) {
  MRS_REQUIRE(spec_.reduce_count >= 1);
  MRS_REQUIRE(!spec_.map_tasks.empty());
  MRS_REQUIRE(spec_.map_rate > 0.0 && spec_.reduce_rate > 0.0);
  MRS_REQUIRE(spec_.map_selectivity >= 0.0);
  MRS_REQUIRE(spec_.emit_nonlinearity > 0.0);

  const std::size_t m = spec_.map_tasks.size();
  const std::size_t n = spec_.reduce_count;
  maps_.resize(m);
  reduces_.resize(n);
  for (auto& r : reduces_) {
    r.pending_by_node.resize(node_count);
    r.fetched_map.assign(m, false);
  }
  maps_unassigned_ = m;
  reduces_unassigned_ = n;
  submit_time = spec_.submit_time;

  // Draw the ground-truth intermediate matrix I. Partition weights follow a
  // Zipf profile over reduce indices shifted by a per-job random offset so
  // the "hot" partition is not always partition 0, plus a per-(map,reduce)
  // multiplicative jitter; rows are normalized to the map's total output.
  intermediate_.assign(m * n, 0.0);
  map_output_total_.assign(m, 0.0);
  const std::size_t hot_shift = n > 1 ? rng.index(n) : 0;
  std::vector<double> base_weight(n);
  for (std::size_t f = 0; f < n; ++f) {
    const std::size_t rank = (f + hot_shift) % n;
    base_weight[f] =
        1.0 / std::pow(static_cast<double>(rank + 1), spec_.partition_skew);
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double jitter =
        spec_.selectivity_jitter > 0.0
            ? rng.lognormal(-0.5 * spec_.selectivity_jitter *
                                spec_.selectivity_jitter,
                            spec_.selectivity_jitter)
            : 1.0;
    const Bytes total =
        spec_.map_tasks[j].input_size * spec_.map_selectivity * jitter;
    map_output_total_[j] = total;
    double weight_sum = 0.0;
    std::vector<double> w(n);
    for (std::size_t f = 0; f < n; ++f) {
      w[f] = base_weight[f] * rng.uniform(0.7, 1.3);
      weight_sum += w[f];
    }
    for (std::size_t f = 0; f < n; ++f) {
      intermediate_[j * n + f] = total * w[f] / weight_sum;
    }
  }
}

double JobRun::map_progress(std::size_t j, Seconds now) const {
  const MapTaskState& s = maps_.at(j);
  switch (s.phase) {
    case MapPhase::kUnassigned:
    case MapPhase::kStartup:
    case MapPhase::kBackoff:
      return 0.0;
    case MapPhase::kFetching: {
      // Streaming remote read: progress tracks the nominal compute pace
      // but saturates below 1 — the task only completes when the last byte
      // arrives, which a congested path can delay.
      if (s.compute_duration <= 0.0) return 0.0;
      return std::clamp((now - s.compute_start) / s.compute_duration, 0.0,
                        0.99);
    }
    case MapPhase::kComputing: {
      if (s.compute_duration <= 0.0) return 1.0;
      return std::clamp((now - s.compute_start) / s.compute_duration, 0.0,
                        1.0);
    }
    case MapPhase::kDone:
      return 1.0;
  }
  return 0.0;
}

double JobRun::emit_ramp(double progress) const {
  return spec_.emit_nonlinearity == 1.0
             ? progress
             : std::pow(progress, spec_.emit_nonlinearity);
}

Bytes JobRun::current_partition(std::size_t j, std::size_t f,
                                Seconds now) const {
  const double p = map_progress(j, now);
  if (p <= 0.0) return 0.0;
  return final_partition(j, f) * emit_ramp(p);
}

std::vector<std::size_t> JobRun::unassigned_maps() const {
  std::vector<std::size_t> out;
  out.reserve(maps_unassigned_);
  for (std::size_t j = 0; j < maps_.size(); ++j) {
    if (maps_[j].phase == MapPhase::kUnassigned) out.push_back(j);
  }
  return out;
}

std::vector<std::size_t> JobRun::unassigned_reduces() const {
  std::vector<std::size_t> out;
  out.reserve(reduces_unassigned_);
  for (std::size_t f = 0; f < reduces_.size(); ++f) {
    if (reduces_[f].phase == ReducePhase::kUnassigned) out.push_back(f);
  }
  return out;
}

void JobRun::build_placement_index(
    const std::function<const std::vector<NodeId>&(std::size_t)>&
        replica_nodes,
    const net::Topology& topo) {
  MRS_REQUIRE(local_tasks_by_node_.empty());  // build once
  const std::size_t nodes = node_count_;
  MRS_REQUIRE(topo.host_count() == nodes);
  local_tasks_by_node_.resize(nodes);
  local_tasks_by_rack_.resize(std::max<std::size_t>(topo.rack_count(), 1));
  replica_coords_begin_.push_back(0);
  for (std::size_t j = 0; j < maps_.size(); ++j) {
    const std::vector<NodeId>& replicas = replica_nodes(j);
    for (NodeId replica : replicas) {
      MRS_REQUIRE(replica.value() < nodes);
      local_tasks_by_node_[replica.value()].push_back(j);
      local_tasks_by_rack_[topo.rack_of(replica).value()].push_back(j);
    }
    topo.append_set_coords(replicas, replica_coords_);
    replica_coords_begin_.push_back(replica_coords_.size());
  }
  // A task with two same-rack replicas appears twice in its rack list;
  // harmless (the cursor skips assigned tasks), but de-duplicate anyway to
  // keep the lists minimal.
  for (auto& list : local_tasks_by_rack_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  local_cursor_.assign(local_tasks_by_node_.size(), 0);
  rack_cursor_.assign(local_tasks_by_rack_.size(), 0);
}

std::size_t JobRun::pop_front_unassigned(const std::vector<std::size_t>& list,
                                         std::size_t& cursor) const {
  while (cursor < list.size() &&
         maps_[list[cursor]].phase != MapPhase::kUnassigned) {
    ++cursor;
  }
  return cursor < list.size() ? list[cursor] : maps_.size();
}

std::size_t JobRun::next_local_map(NodeId node) {
  MRS_REQUIRE(!local_tasks_by_node_.empty());
  return pop_front_unassigned(local_tasks_by_node_[node.value()],
                              local_cursor_[node.value()]);
}

std::size_t JobRun::next_rack_map(RackId rack) {
  MRS_REQUIRE(!local_tasks_by_rack_.empty());
  if (!rack.valid() || rack.value() >= local_tasks_by_rack_.size()) {
    return maps_.size();
  }
  return pop_front_unassigned(local_tasks_by_rack_[rack.value()],
                              rack_cursor_[rack.value()]);
}

std::size_t JobRun::next_any_map() {
  while (any_cursor_ < maps_.size() &&
         maps_[any_cursor_].phase != MapPhase::kUnassigned) {
    ++any_cursor_;
  }
  return any_cursor_ < maps_.size() ? any_cursor_ : maps_.size();
}

MapPick JobRun::next_map_for(NodeId node, RackId rack) {
  std::size_t task = next_local_map(node);
  if (task < maps_.size()) return {task, 0};
  task = next_rack_map(rack);
  if (task < maps_.size()) return {task, 1};
  return {next_any_map(), 2};
}

void JobRun::rewind_placement_cursors() {
  std::fill(local_cursor_.begin(), local_cursor_.end(), 0);
  std::fill(rack_cursor_.begin(), rack_cursor_.end(), 0);
  any_cursor_ = 0;
}

bool JobRun::has_reduce_on(NodeId node) const {
  // Only *running* reduces count (Algorithm 2, Line 1): a completed reduce
  // releases the node for later reduce tasks of the same job.
  for (const auto& r : reduces_) {
    if (r.phase == ReducePhase::kUnassigned ||
        r.phase == ReducePhase::kDone) {
      continue;
    }
    if (r.node == node) return true;
  }
  return false;
}

}  // namespace mrs::mapreduce
