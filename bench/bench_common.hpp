// Shared constants for the bench binaries: the output directory, the seed
// every bench uses, the paper's three schedulers and the report header.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "mrs/driver/experiment.hpp"

namespace mrs::bench {

inline const char* kOutputDir = "bench_out";
inline constexpr std::uint64_t kSeed = 42;

inline const std::vector<driver::SchedulerKind>& schedulers() {
  static const std::vector<driver::SchedulerKind> kKinds = {
      driver::SchedulerKind::kFair, driver::SchedulerKind::kCoupling,
      driver::SchedulerKind::kPna};
  return kKinds;
}

inline void print_header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

}  // namespace mrs::bench
