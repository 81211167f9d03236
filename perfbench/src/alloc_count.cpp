// Counting global operator new/delete for the benchmark binary only. The
// counts are exact: the simulator is single-threaded and deterministic, so
// two same-seed runs allocate identically. Memory from malloc() directly is
// not seen; the simulator allocates through operator new.
#include "alloc_count.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
// Live and peak heap bytes as the allocator sizes the blocks. The simulator
// is single-threaded; the atomics only keep stray library threads safe.
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void* track(void* p, std::size_t n) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t usable = malloc_usable_size(p);
  const std::uint64_t live =
      g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t n) { return track(std::malloc(n ? n : 1), n); }

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = std::max(a, (n + a - 1) / a * a);
  return track(std::aligned_alloc(a, rounded), n);
}
}  // namespace

namespace perfbench {
AllocCounts alloc_counts() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed),
          g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
