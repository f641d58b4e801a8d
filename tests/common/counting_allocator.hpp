// Heap-allocation counting for the allocation-budget tests.
//
// Including this header replaces the global allocation functions of the
// test binary: every operator new/new[] bumps an atomic while a
// CountingScope is alive.  Include it from exactly one translation unit
// per binary.  Assertions belong outside the counted region (a failing
// EXPECT allocates its message).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace fadewich::test {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<bool> g_counting{false};

inline void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

/// Counts the allocations made while it is alive, from zero.
struct CountingScope {
  CountingScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;
  std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace fadewich::test

void* operator new(std::size_t size) {
  return fadewich::test::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return fadewich::test::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
