#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr std::uint32_t kSlots = 1u << 20;
constexpr int kEvents = 100000;
/// time_s() keeps the fastest of this many runs, which filters the
/// kernel's own spikes out of the reference.
constexpr int kRuns = 3;
constexpr std::uint32_t kQueued = 4096;

}  // namespace

HostReference::HostReference() : slots_(kSlots) {
  std::vector<std::uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937 rng(1);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    Slot& s = slots_[order[i]];
    s.next = order[(i + 1) % kSlots];
    s.value[0] = static_cast<double>(i);
    s.value[1] = 0.0;
    s.value[2] = 0.0;
  }
}

double HostReference::time_s() {
  double best = once_s();
  for (int i = 1; i < kRuns; ++i) best = std::min(best, once_s());
  return best;
}

double HostReference::once_s() {
  const auto t0 = std::chrono::steady_clock::now();
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, double> totals;
  double acc = 0.0;
  std::uint32_t at = 0;
  const std::function<void(std::uint32_t)> visit = [&](std::uint32_t i) {
    Slot& s = slots_[i];
    acc += s.value[0];
    s.value[1] += acc * 1e-9;
    at = s.next;
  };
  for (std::uint32_t i = 0; i < kQueued; ++i) {
    queue.emplace(static_cast<double>(i), i);
  }
  for (int e = 0; e < kEvents; ++e) {
    const Event ev = queue.top();
    queue.pop();
    visit(at);
    totals[at & 0xffffu] += ev.first;
    queue.emplace(ev.first + 1.0 + static_cast<double>(at & 7u), at);
  }
  sink_ += acc + static_cast<double>(totals.size());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
