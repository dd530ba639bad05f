// A counting global allocator for the zero-allocation tests.  A test binary
// that links alloc_counter.cc has every operator new and delete replaced by
// malloc/free wrappers, and each operator new adds one to g_allocs.  The
// operators live in a translation unit of their own: defined next to code
// that calls new and delete, GCC inlines them there and, with the TSan
// preset's flags, reports -Wmismatched-new-delete.
#pragma once

#include <atomic>
#include <cstdint>

namespace anton::test_support {

// Heap allocations the binary has made so far.
extern std::atomic<std::int64_t> g_allocs;

}  // namespace anton::test_support
