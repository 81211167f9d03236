#include "reference_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace perfbench {

namespace {
constexpr std::size_t kSlots = 512;   // 32 KiB
constexpr std::size_t kEvents = 4096;  // 64 KiB
}  // namespace

ReferenceKernel::ReferenceKernel() : table_(kSlots) {
  heap_.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    heap_.push_back({next() & 0xffff, i});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

std::uint64_t ReferenceKernel::next() {
  x_ ^= x_ << 13;
  x_ ^= x_ >> 7;
  x_ ^= x_ << 17;
  return x_;
}

void ReferenceKernel::run(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Event& e = heap_.back();
    Slot& s = table_[(e.second * 2654435761u + next()) & (kSlots - 1)];
    s.v[e.first & 7] += e.first;
    const std::size_t n = 64 + (next() & 448);
    auto* block = static_cast<unsigned char*>(std::malloc(n));
    std::memset(block, static_cast<int>(e.first), n);
    asm volatile("" : : "r"(block) : "memory");  // keep the block real
    sum_ += s.v[0] + block[n / 2];
    std::free(block);
    e.first += 1 + (next() & 0xfff);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
}

}  // namespace perfbench
