#include "mrs/sim/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mrs::sim {

namespace {
// Sweep thresholds: small queues never pay a compaction pass; large ones
// pay O(n) only after at least half (heap) / three quarters (callback
// table) of the entries are dead, so the cost amortizes to O(1) per event.
constexpr std::size_t kHeapSweepMin = 64;
constexpr std::size_t kCallbackSweepMin = 1024;

[[noreturn]] void livelock(Seconds now) {
  std::fprintf(stderr,
               "sim::Simulation: livelock: more than %zu events fired at "
               "t = %.17g s without the clock moving\n",
               Simulation::kMaxEventsPerInstant, now);
  std::abort();
}
}  // namespace

EventHandle Simulation::schedule_at(Seconds t, Callback cb) {
  MRS_REQUIRE(t >= now_ - 1e-9);
  MRS_REQUIRE(cb != nullptr);
  const std::uint64_t seq = next_seq_++;
  callbacks_.push_back(std::move(cb));
  heap_.push_back({std::max(t, now_), seq});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  ++live_events_;
  return EventHandle(seq);
}

Simulation::Callback* Simulation::find(std::uint64_t seq) {
  if (seq < base_seq_) return nullptr;
  const std::uint64_t idx = seq - base_seq_;
  if (idx >= callbacks_.size()) return nullptr;
  return &callbacks_[idx];
}

bool Simulation::is_live(const Entry& e) {
  Callback* cb = find(e.seq);
  return cb != nullptr && *cb != nullptr;
}

void Simulation::cancel(EventHandle h) {
  if (!h.valid()) return;
  Callback* cb = find(h.seq_);
  if (cb != nullptr && *cb != nullptr) {
    *cb = nullptr;
    --live_events_;
    ++heap_tombstones_;
    if (heap_tombstones_ >= kHeapSweepMin &&
        heap_tombstones_ * 2 >= heap_.size()) {
      compact_heap();
    }
  }
}

void Simulation::compact_heap() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), EntryGreater{});
  heap_tombstones_ = 0;
}

void Simulation::compact_callbacks() {
  // Entries below scan_floor_ are known dead from previous passes, so the
  // prefix scan resumes there instead of rescanning the whole table.
  while (scan_floor_ < callbacks_.size() &&
         callbacks_[scan_floor_] == nullptr) {
    ++scan_floor_;
  }
  if (scan_floor_ > 0 && scan_floor_ * 2 >= callbacks_.size()) {
    callbacks_.erase(callbacks_.begin(),
                     callbacks_.begin() +
                         static_cast<std::ptrdiff_t>(scan_floor_));
    base_seq_ += scan_floor_;
    scan_floor_ = 0;
  }
}

bool Simulation::settle_top() {
  while (!heap_.empty()) {
    if (is_live(heap_.front())) return true;
    std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
    heap_.pop_back();
    if (heap_tombstones_ > 0) --heap_tombstones_;
  }
  return false;
}

bool Simulation::step() {
  if (!settle_top()) return false;
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
  heap_.pop_back();
  Callback* slot = find(top.seq);
  Callback cb = std::exchange(*slot, nullptr);
  MRS_ASSERT(top.time >= now_);
  if (top.time != now_) {
    now_ = top.time;
    fired_at_now_ = 0;
  }
  if (++fired_at_now_ > kMaxEventsPerInstant) livelock(now_);
  --live_events_;
  ++processed_;
  cb();
  if (callbacks_.size() > kCallbackSweepMin) compact_callbacks();
  return true;
}

std::size_t Simulation::run(Seconds max_time) {
  std::size_t n = 0;
  while (true) {
    // Settle tombstones so the stop check sees the next *live* event time.
    if (!settle_top()) break;
    if (heap_.front().time > max_time) break;
    if (!step()) break;
    ++n;
  }
  return n;
}

}  // namespace mrs::sim
