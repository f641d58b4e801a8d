#include "fadewich/common/scratch_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

namespace fadewich::common {
namespace {

TEST(ScratchArenaTest, HandsOutAlignedSpans) {
  ScratchArena arena;
  const auto frame = arena.frame();
  const std::span<double> d = arena.get<double>(7);
  const std::span<std::uint8_t> b = arena.get<std::uint8_t>(3);
  const std::span<std::uint64_t> q = arena.get<std::uint64_t>(2);
  EXPECT_EQ(d.size(), 7u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double),
            0u);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(q.data()) % alignof(std::uint64_t),
      0u);
}

TEST(ScratchArenaTest, FrameReleaseReusesTheSameStorage) {
  ScratchArena arena;
  double* first = nullptr;
  {
    const auto frame = arena.frame();
    first = arena.get<double>(64).data();
  }
  const std::size_t reserved = arena.bytes_reserved();
  for (int i = 0; i < 100; ++i) {
    const auto frame = arena.frame();
    EXPECT_EQ(arena.get<double>(64).data(), first);
  }
  // Steady-state frames of a repeating size never grow the arena.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ScratchArenaTest, NestedFramesRewindLifo) {
  ScratchArena arena;
  const auto outer = arena.frame();
  const std::span<double> a = arena.get<double>(8);
  a[0] = 1.0;
  double* inner_ptr = nullptr;
  {
    const auto inner = arena.frame();
    inner_ptr = arena.get<double>(8).data();
    EXPECT_NE(inner_ptr, a.data());  // outer allocation stays live
  }
  // The inner frame's storage is reusable; the outer span is untouched.
  EXPECT_EQ(arena.get<double>(8).data(), inner_ptr);
  EXPECT_EQ(a[0], 1.0);
}

TEST(ScratchArenaTest, GrowsAcrossBlocksWithinOneFrame) {
  ScratchArena arena;
  const auto frame = arena.frame();
  // Far beyond the first block: must chain new blocks, all spans valid.
  std::vector<std::span<double>> spans;
  for (int i = 0; i < 16; ++i) {
    spans.push_back(arena.get<double>(1024));
    spans.back()[0] = static_cast<double>(i);
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)][0],
              static_cast<double>(i));
  }
  EXPECT_GE(arena.bytes_reserved(), 16u * 1024u * sizeof(double));
}

TEST(ScratchArenaTest, LocalIsPerThread) {
  ScratchArena* main_arena = &ScratchArena::local();
  ScratchArena* other_arena = nullptr;
  std::thread worker([&] { other_arena = &ScratchArena::local(); });
  worker.join();
  EXPECT_NE(main_arena, other_arena);
  EXPECT_EQ(main_arena, &ScratchArena::local());
}

}  // namespace
}  // namespace fadewich::common
