// The thread fan-out shared by run_experiments and run_stream_experiments.
// Private to mrs_driver: included by its sources only.
#pragma once

#include <cstddef>
#include <functional>

namespace mrs::driver {

/// Call body(i) for every i in [0, n) on min(n, hardware concurrency)
/// threads with static striping: worker w takes w, w + workers, ...
/// Each call must touch only its own output slot. The first exception a
/// worker throws is rethrown here once every worker has finished.
void run_striped(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace mrs::driver
