// Process-wide heap allocation counter for the allocation gates.
//
// Linking alloc_counter.cpp replaces the global operator new/delete family
// with malloc/free-backed versions that count every allocation. They live
// in their own translation unit, so no caller ever has the replacement
// delete's free() inlined against an operator-new result (GCC reports that
// pairing as -Wmismatched-new-delete in sanitizer builds, although the
// replacements do pair malloc with free).
#pragma once

#include <cstdint>

namespace psf::bench {

// Allocator calls (every operator new variant) since process start.
std::uint64_t heap_allocations();

}  // namespace psf::bench
