// Persistence for experiment results: task/job records are written as CSV
// files for offline post-processing (pnats_sim --out).
#pragma once

#include <string>

#include "mrs/driver/experiment.hpp"

namespace mrs::driver {

/// Write `result` into `directory` (created if needed) as three files:
/// <stem>_meta.csv, <stem>_jobs.csv, <stem>_tasks.csv.
void save_result(const std::string& directory, const std::string& stem,
                 const ExperimentResult& result);

}  // namespace mrs::driver
