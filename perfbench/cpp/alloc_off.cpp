#include "alloc.hpp"

namespace perfbench {

bool alloc_counting() { return false; }
AllocStats alloc_stats() { return {}; }
void alloc_reset_peak() {}

}  // namespace perfbench
