#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc.hpp"

// libstdc++ routes the nothrow, array and sized forms through these two
// replaceable functions, so replacing them counts every unaligned
// allocation in the process, the parallel engine's worker threads included.

namespace {

std::atomic<std::uint64_t> g_count{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_count.fetch_add(1, std::memory_order_relaxed);
  const auto size = std::int64_t(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(std::int64_t(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace perfbench {

bool alloc_counting() { return true; }

AllocStats alloc_stats() {
  return {g_count.load(std::memory_order_relaxed),
          g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void alloc_reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace perfbench
