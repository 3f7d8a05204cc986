// Test-only heap-allocation counting: replaces the global operator
// new/delete with malloc-backed versions that bump a thread-local counter,
// so tests and benches can pin "zero allocations per request" as a hard
// number instead of a hope (tests/service_codec_test.cc,
// bench/protocol_speed.cc).
//
// This header DEFINES the replacement operators — include it in exactly
// one translation unit per binary (the test's or bench's own .cc), never
// from another header and never in library code. Under ASan/TSan the
// replacement is disabled (the sanitizer runtimes own the allocator and
// interpose malloc themselves); callers must check
// AllocationCountingAvailable() and skip the assertion when false.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OPTSHARE_ALLOC_COUNT_ENABLED 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OPTSHARE_ALLOC_COUNT_ENABLED 0
#else
#define OPTSHARE_ALLOC_COUNT_ENABLED 1
#endif
#else
#define OPTSHARE_ALLOC_COUNT_ENABLED 1
#endif

namespace optshare::alloc_count {

inline thread_local uint64_t thread_allocations = 0;

/// False when a sanitizer owns the allocator and the counter never moves.
constexpr bool AllocationCountingAvailable() {
  return OPTSHARE_ALLOC_COUNT_ENABLED != 0;
}

/// Heap allocations made by this thread since it started (new/new[] calls;
/// deletes are not counted). Subtract two readings around the code under
/// measurement.
inline uint64_t ThreadAllocations() { return thread_allocations; }

}  // namespace optshare::alloc_count

#if OPTSHARE_ALLOC_COUNT_ENABLED

namespace optshare::alloc_count {

inline void* CountedAlloc(std::size_t size) {
  ++thread_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace optshare::alloc_count

void* operator new(std::size_t size) {
  return optshare::alloc_count::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return optshare::alloc_count::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++optshare::alloc_count::thread_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++optshare::alloc_count::thread_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // OPTSHARE_ALLOC_COUNT_ENABLED
