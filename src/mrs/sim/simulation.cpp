#include "mrs/sim/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mrs::sim {

namespace {
// Sweep threshold: small heaps never pay a compaction pass; large ones pay
// O(n) only after at least half of the entries are dead, so the cost
// amortizes to O(1) per event.
constexpr std::size_t kHeapSweepMin = 64;

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
  MRS_REQUIRE(seq < (kFree >> kSlotBits));
  std::uint64_t slot = 0;
  if (free_slots_.empty()) {
    MRS_REQUIRE(slots_.size() < kSlotMask);
    slot = slots_.size();
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t id = (seq << kSlotBits) | slot;
  slots_[slot].cb = std::move(cb);
  slots_[slot].id = id;
  heap_.push_back({std::max(t, now_), id});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  ++live_events_;
  return EventHandle(id);
}

Simulation::Callback Simulation::release(std::uint64_t id) {
  Slot& s = slots_[id & kSlotMask];
  s.id = kFree;
  free_slots_.push_back(static_cast<std::uint32_t>(id & kSlotMask));
  return std::exchange(s.cb, nullptr);
}

void Simulation::cancel(EventHandle h) {
  if (!h.valid() || !is_live(h.id_)) return;
  (void)release(h.id_);
  --live_events_;
  ++heap_tombstones_;
  if (heap_tombstones_ >= kHeapSweepMin &&
      heap_tombstones_ * 2 >= heap_.size()) {
    compact_heap();
  }
}

void Simulation::compact_heap() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), EntryGreater{});
  heap_tombstones_ = 0;
}

bool Simulation::settle_top() {
  while (!heap_.empty()) {
    if (is_live(heap_.front().id)) return true;
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
  // Free the slot before the call: the callback may schedule into it.
  Callback cb = release(top.id);
  MRS_ASSERT(top.time >= now_);
  if (top.time != now_) {
    now_ = top.time;
    fired_at_now_ = 0;
  }
  if (++fired_at_now_ > kMaxEventsPerInstant) livelock(now_);
  --live_events_;
  ++processed_;
  cb();
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
