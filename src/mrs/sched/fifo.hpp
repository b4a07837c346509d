// FIFO scheduler (Hadoop's original default, Sec. IV).
//
// Jobs strictly in submission order. Map placement is greedy
// locality-first (node-local, then rack-local, then any task); reduce
// placement takes the first unassigned reduce once the slowstart gate
// opens. No probabilistic or delay behaviour.
#pragma once

#include "mrs/mapreduce/engine.hpp"
#include "mrs/mapreduce/scheduler.hpp"

namespace mrs::sched {

class FifoScheduler final : public mapreduce::TaskScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "fifo"; }

 private:
  void offer_map(mapreduce::Engine& engine, NodeId node) override;
  void offer_reduce(mapreduce::Engine& engine, NodeId node) override;
};

}  // namespace mrs::sched
