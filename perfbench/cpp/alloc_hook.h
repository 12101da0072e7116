#pragma once

#include <cstdint>

namespace perfbench {
// Heap allocations (all operator new forms, all threads) since start-up.
std::uint64_t heap_allocations();
}  // namespace perfbench
