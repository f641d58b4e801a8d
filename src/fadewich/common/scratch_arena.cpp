#include "fadewich/common/scratch_arena.hpp"

#include <algorithm>

namespace fadewich::common {

namespace {
constexpr std::size_t kMinBlockBytes = 4096;
}  // namespace

void* ScratchArena::allocate(std::size_t bytes, std::size_t align) {
  FADEWICH_EXPECTS(align != 0 && (align & (align - 1)) == 0);
  // Block bases come from operator new[], so offsets aligned to `align`
  // stay aligned only up to the default new alignment.
  FADEWICH_EXPECTS(align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  // Find room in the current block (after alignment padding), else walk
  // forward to the next retained block, else grow.
  while (current_block_ < blocks_.size()) {
    Block& block = blocks_[current_block_];
    const std::size_t aligned = (block.used + align - 1) & ~(align - 1);
    if (aligned + bytes <= block.size) {
      block.used = aligned + bytes;
      return block.data.get() + aligned;
    }
    // This block is exhausted for this frame; try the next one (its
    // `used` was reset when the frame that filled it released).
    ++current_block_;
    if (current_block_ < blocks_.size()) blocks_[current_block_].used = 0;
  }
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
  const std::size_t size =
      std::max({kMinBlockBytes, last * 2, bytes + align});
  blocks_.push_back(
      Block{std::make_unique<std::byte[]>(size), size, 0});
  bytes_reserved_ += size;
  current_block_ = blocks_.size() - 1;
  Block& block = blocks_.back();
  block.used = bytes;
  return block.data.get();
}

void ScratchArena::release(std::size_t block, std::size_t used) {
  // Rewind to the frame's watermark; blocks past it stay reserved but
  // become free for the next frame.
  if (blocks_.empty()) return;
  current_block_ = std::min(block, blocks_.size() - 1);
  blocks_[current_block_].used = used;
  for (std::size_t b = current_block_ + 1; b < blocks_.size(); ++b) {
    blocks_[b].used = 0;
  }
}

ScratchArena& ScratchArena::local() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace fadewich::common
