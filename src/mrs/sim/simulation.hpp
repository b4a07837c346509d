// Discrete-event simulation engine.
//
// A single-threaded calendar queue: events are (time, sequence) ordered, so
// simultaneous events fire in scheduling order and every run is
// deterministic. Cancellation uses tombstones (lazy deletion), which the
// network service relies on to invalidate stale flow-completion events.
// Long streams cancel heavily (every network dispatch reschedules the
// completion event), so both the heap and the callback table amortize their
// cleanup: the heap filters dead entries in one O(n) pass once tombstones
// outnumber live entries, and the callback table drops its fired prefix
// from a remembered scan floor instead of rescanning from index 0.
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

  [[nodiscard]] bool valid() const { return seq_ != kInvalid; }

 private:
  friend class Simulation;
  explicit EventHandle(std::uint64_t seq) : seq_(seq) {}
  static constexpr std::uint64_t kInvalid =
      std::numeric_limits<std::uint64_t>::max();
  std::uint64_t seq_ = kInvalid;
};

/// The event-driven simulation clock and dispatcher.
class Simulation {
 public:
  using Callback = std::function<void()>;

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

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const { return a > b; }
  };

  // Min-heap over (time, seq) with lazy deletion: cancelled entries stay
  // until popped or swept by compact_heap().
  std::vector<Entry> heap_;
  std::size_t heap_tombstones_ = 0;  ///< cancelled entries still in heap_
  // seq -> callback; empty function marks a cancelled/fired tombstone.
  std::vector<Callback> callbacks_;
  std::uint64_t base_seq_ = 0;   ///< seq of callbacks_[0]
  std::size_t scan_floor_ = 0;   ///< callbacks_[0, scan_floor_) known dead
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t processed_ = 0;

  [[nodiscard]] Callback* find(std::uint64_t seq);
  [[nodiscard]] bool is_live(const Entry& e);
  /// Pop tombstones off the heap top; returns false when the heap empties.
  bool settle_top();
  /// Remove every dead heap entry in one pass and re-heapify.
  void compact_heap();
  /// Erase the dead callbacks_ prefix (amortized via scan_floor_).
  void compact_callbacks();
};

}  // namespace mrs::sim
