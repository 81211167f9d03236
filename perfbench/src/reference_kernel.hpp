#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A fixed piece of host work that gauges how fast this machine runs the
/// simulator at the moment. The benchmark runs slices of it between
/// scheduler steps and divides the simulator's CPU time by the kernel's, so
/// drifts in machine speed (a shared host's neighbours, clock changes)
/// cancel out of the host-time metrics.
///
/// Its shape follows the simulator's hot loop: pop the earliest of a few
/// thousand timed events, update a slot of a small table, malloc and fill a
/// small block, push the event back. Everything stays in L1/L2: under
/// contention the simulator's time moved with this kernel's at a log-log
/// slope of 0.9, with that of a variant whose table missed the L3 at only
/// 0.7. It depends on nothing under src/, so a change to the simulator
/// cannot change it, and it allocates through malloc only, so the counting
/// operator new does not see it.
class ReferenceKernel {
 public:
  ReferenceKernel();

  /// Runs `iterations` iterations; the state carries over between calls.
  void run(std::uint64_t iterations);

 private:
  struct Slot {
    std::uint64_t v[8];
  };
  using Event = std::pair<std::uint64_t, std::uint64_t>;

  std::uint64_t next();

  std::vector<Slot> table_;
  std::vector<Event> heap_;  // min-heap on the event time
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum_ = 0;  // folds in every read, so no work is dead
};

}  // namespace perfbench
