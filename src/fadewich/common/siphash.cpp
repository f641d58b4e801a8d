#include "fadewich/common/siphash.hpp"

namespace fadewich {

namespace {

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        const void* data, std::size_t len) {
  const auto* in = static_cast<const std::uint8_t*>(data);
  SipHash24 mac(k0, k1);
  const std::size_t blocks = len / 8;
  for (std::size_t i = 0; i < blocks; ++i) mac.word(load_le64(in + 8 * i));
  // Last block: the remaining bytes little-endian; finish() adds the
  // length in the top byte.
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < (len & 7); ++i) {
    tail |= static_cast<std::uint64_t>(in[8 * blocks + i]) << (8 * i);
  }
  return mac.finish(tail, len);
}

}  // namespace fadewich
