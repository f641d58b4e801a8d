// SipHash-2-4: a keyed 64-bit PRF for short inputs (Aumasson & Bernstein,
// "SipHash: a fast short-input PRF", 2012).
//
// This is the MAC primitive behind wire-frame authentication: fast enough
// to tag every sensor report frame at line rate (a few ns per frame), and
// — unlike the CRC trailer, which any attacker can recompute — unforgeable
// without the 128-bit key.  The reference construction is implemented
// verbatim (2 compression rounds, 4 finalization rounds, the standard
// length-padded last block), so tags are stable across platforms and
// interoperable with any other SipHash-2-4 implementation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fadewich {

/// SipHash-2-4 fed one little-endian 64-bit message word at a time, for
/// callers that assemble a message from fields instead of holding its
/// bytes (net::frame_tag).  word() absorbs the next 8 message bytes;
/// finish() takes the last len % 8 bytes, little-endian in the low
/// bytes of `tail` with the rest zero, and the total message length.
class SipHash24 {
 public:
  SipHash24(std::uint64_t k0, std::uint64_t k1)
      : v0_(0x736f6d6570736575ULL ^ k0),
        v1_(0x646f72616e646f6dULL ^ k1),
        v2_(0x6c7967656e657261ULL ^ k0),
        v3_(0x7465646279746573ULL ^ k1) {}

  void word(std::uint64_t m) {
    v3_ ^= m;
    round();
    round();
    v0_ ^= m;
  }

  std::uint64_t finish(std::uint64_t tail, std::size_t len) {
    word(tail | static_cast<std::uint64_t>(len & 0xff) << 56);
    v2_ ^= 0xff;
    round();
    round();
    round();
    round();
    return v0_ ^ v1_ ^ v2_ ^ v3_;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int b) {
    return (x << b) | (x >> (64 - b));
  }

  void round() {
    v0_ += v1_;
    v1_ = rotl(v1_, 13);
    v1_ ^= v0_;
    v0_ = rotl(v0_, 32);
    v2_ += v3_;
    v3_ = rotl(v3_, 16);
    v3_ ^= v2_;
    v0_ += v3_;
    v3_ = rotl(v3_, 21);
    v3_ ^= v0_;
    v2_ += v1_;
    v1_ = rotl(v1_, 17);
    v1_ ^= v2_;
    v2_ = rotl(v2_, 32);
  }

  std::uint64_t v0_, v1_, v2_, v3_;
};

/// SipHash-2-4 of `len` bytes under the 128-bit key (k0, k1).
std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        const void* data, std::size_t len);

}  // namespace fadewich
