// A fixed reference kernel that measures how fast the host is right now.
//
// Host speed here swings by up to 1.6x for tens of seconds at a time, on
// the order of a whole benchmark run, so the fastest of several passes
// cannot hide it. The kernel imitates a discrete-event simulator's access
// pattern (a time-ordered heap, callbacks through std::function, a hash
// map and dependent loads over a buffer much larger than the caches) and
// shares none of the simulator's code, so a change to the program does not
// move it. Timed next to each pass, it tracks the simulator's slowdowns
// (per-pass correlation 0.66-0.81, against 0.35 for a plain pointer chase
// and 0.23 for an arithmetic loop), and host times are scaled by it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  /// Host seconds the kernel takes on the reference machine in its fast
  /// state (see README.md), so scaled times read as that host's seconds.
  static constexpr double kNominalS = 0.035;

  HostReference();

  /// Host seconds of the kernel: the fastest of a few back-to-back runs.
  double time_s();

  /// Host seconds `measured_s` would have taken on a host where the
  /// kernel took kNominalS, given the kernel took `reference_s` alongside.
  [[nodiscard]] static double scale(double measured_s, double reference_s) {
    return measured_s * kNominalS / reference_s;
  }

 private:
  double once_s();

  struct Slot {
    double value[3];
    std::uint32_t next;
    std::uint32_t pad;
  };
  std::vector<Slot> slots_;  ///< one random cycle through 32 MiB
  double sink_ = 0.0;        ///< keeps the kernel's result live
};

}  // namespace perfbench
