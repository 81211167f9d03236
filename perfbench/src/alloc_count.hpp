#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations (calls to any global operator new) and bytes requested
/// since the process started; live and peak bytes of the blocks they hold.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t live = 0;
  std::uint64_t peak = 0;
};

AllocCounts alloc_counts();

/// Restart the peak at the current live size.
void reset_heap_peak();

}  // namespace perfbench
