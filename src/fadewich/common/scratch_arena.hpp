// Per-thread reusable scratch buffers for allocation-free hot loops.
//
// The steady-state tick path (channel sampling, batched SVM inference,
// feature staging) needs short-lived arrays whose sizes repeat every
// call.  Allocating them per call costs a malloc/free pair per tick and
// defeats the "zero heap allocations in steady state" budget; keeping a
// member vector per call site scatters ownership.  A ScratchArena is a
// grow-only bump allocator: get<T>(n) hands out an aligned span from a
// retained block, a Frame resets the watermark on scope exit, and blocks
// are never freed until the arena dies — so after warm-up every frame is
// pure pointer arithmetic.
//
// Ownership rules (see DESIGN.md §13):
//   * Spans are valid until the Frame they were allocated under is
//     destroyed.  Never store them across frames or return them.
//   * Frames nest LIFO, naturally matching call structure.
//   * ScratchArena::local() is the calling thread's arena; it must not
//     be handed to another thread.  Pool workers each get their own.
//   * Element types must be trivially destructible; spans come back
//     uninitialised (value-initialise if you read before writing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::common {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// RAII watermark: allocations made while a Frame is alive are handed
  /// back (for reuse, not to the OS) when it goes out of scope.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(&arena),
          block_(arena.current_block_),
          used_(arena.blocks_.empty() ? 0
                                      : arena.blocks_[arena.current_block_]
                                            .used) {}
    ~Frame() { arena_->release(block_, used_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena* arena_;
    std::size_t block_;
    std::size_t used_;
  };

  Frame frame() { return Frame(*this); }

  /// An uninitialised span of `count` Ts, aligned for T, valid until the
  /// innermost enclosing Frame dies.
  template <typename T>
  std::span<T> get(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    void* p = allocate(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Bytes this arena has reserved from the heap so far (grow-only).
  /// Arenas belong to threads, not to pipelines, so no scrape reports
  /// it; a fleet shard counts its own arena in memory_bytes().
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  /// The calling thread's arena.  Each thread owns exactly one; spans
  /// from it must stay on this thread.
  static ScratchArena& local();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate(std::size_t bytes, std::size_t align);
  void release(std::size_t block, std::size_t used);

  std::vector<Block> blocks_;
  std::size_t current_block_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace fadewich::common
