#pragma once

#include <cstdint>

/// \file alloc.hpp
/// Process-wide ::operator new accounting. The traced binary links
/// alloc_count.cpp, which replaces the global operator new/delete; the
/// untraced binary links alloc_off.cpp and keeps the library allocator, so
/// the end-to-end runs carry no counting cost.

namespace perfbench {

struct AllocStats {
  std::uint64_t count = 0;      ///< operator new calls so far
  std::int64_t live_bytes = 0;  ///< bytes currently allocated
  std::int64_t peak_bytes = 0;  ///< high-water mark since alloc_reset_peak()
};

/// True in the traced binary (allocations are counted).
bool alloc_counting();
AllocStats alloc_stats();
/// Restart the high-water mark from the current live byte count.
void alloc_reset_peak();

}  // namespace perfbench
