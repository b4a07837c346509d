// Discrete-event simulation engine.
//
// A single-threaded calendar queue: events are (time, sequence) ordered, so
// simultaneous events fire in scheduling order and every run is
// deterministic. Callbacks live in a pool of slots recycled through a free
// list, so the pool holds as many slots as events were ever pending at
// once, however long the run. An event's id packs its sequence number and
// its slot; the heap entry and the handle carry the id, and the slot is the
// event's while it stores that id. Cancellation frees the slot at once and
// leaves the heap entry as a tombstone (lazy deletion), which the network
// service relies on to invalidate stale flow-completion events. Long
// streams cancel heavily (every network dispatch reschedules the completion
// event), so the heap filters dead entries in one O(n) pass once tombstones
// outnumber live entries.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "mrs/common/check.hpp"
#include "mrs/common/units.hpp"

namespace mrs::sim {

/// Handle to a scheduled event; valid until the event fires or is cancelled.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return id_ != kInvalid; }

 private:
  friend class Simulation;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  static constexpr std::uint64_t kInvalid =
      std::numeric_limits<std::uint64_t>::max();
  std::uint64_t id_ = kInvalid;  ///< see Simulation::kSlotBits
};

/// The event-driven simulation clock and dispatcher.
class Simulation {
 public:
  using Callback = std::function<void()>;

  /// Livelock guard: more consecutive events than this at one simulated
  /// time abort the run with a message naming the time. A callback that
  /// re-arms itself at the current instant would otherwise grow memory
  /// until std::bad_alloc; no model schedules anywhere near this many
  /// simultaneous events.
  static constexpr std::size_t kMaxEventsPerInstant = std::size_t{1} << 24;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now).
  EventHandle schedule_at(Seconds t, Callback cb);

  /// Schedule `cb` after a delay `dt` (>= 0).
  EventHandle schedule_in(Seconds dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Cancel a pending event; a no-op if it already fired or was cancelled.
  void cancel(EventHandle h);

  /// Process the next event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or the clock would pass `max_time`.
  /// Returns the number of events processed.
  std::size_t run(Seconds max_time = std::numeric_limits<Seconds>::max());

  [[nodiscard]] std::size_t pending_count() const { return live_events_; }
  [[nodiscard]] std::size_t processed_count() const { return processed_; }
  /// Heap entries including not-yet-collected tombstones (introspection
  /// for the compaction tests/bench).
  [[nodiscard]] std::size_t queue_size() const { return heap_.size(); }
  /// Callback slots allocated: the most events ever pending at once.
  [[nodiscard]] std::size_t callback_slots() const { return slots_.size(); }

 private:
  /// An event id is (seq << kSlotBits) | slot: it orders like the
  /// sequence number, and it names the callback slot. 40 bits of sequence
  /// (10^12 events) and 24 of slot (16.7 M events pending at once) keep the
  /// heap entry and the handle at one word of id.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  struct Entry {
    Seconds time;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const { return a > b; }
  };

  // Min-heap over (time, seq) with lazy deletion: cancelled entries stay
  // until popped or swept by compact_heap().
  std::vector<Entry> heap_;
  std::size_t heap_tombstones_ = 0;  ///< cancelled entries still in heap_
  /// A pending event's callback, or a free slot (id == kFree).
  struct Slot {
    Callback cb;
    std::uint64_t id;
  };
  static constexpr std::uint64_t kFree = EventHandle::kInvalid;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t processed_ = 0;
  std::size_t fired_at_now_ = 0;  ///< events fired at now_ so far

  [[nodiscard]] bool is_live(std::uint64_t id) const {
    return slots_[id & kSlotMask].id == id;
  }
  /// Move the callback out of event `id`'s slot and free the slot.
  Callback release(std::uint64_t id);
  /// Pop tombstones off the heap top; returns false when the heap empties.
  bool settle_top();
  /// Remove every dead heap entry in one pass and re-heapify.
  void compact_heap();
};

}  // namespace mrs::sim
