#include "fadewich/net/wire.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/common/siphash.hpp"

namespace fadewich::net {
namespace {

std::vector<WireReport> make_reports(DeviceId tx, std::size_t devices) {
  std::vector<WireReport> reports;
  for (DeviceId rx = 0; rx < devices; ++rx) {
    if (rx == tx) continue;
    reports.push_back(
        {rx, static_cast<std::int8_t>(-40 - static_cast<int>(rx))});
  }
  return reports;
}

std::vector<std::uint8_t> encode_one(std::uint64_t seq = 0, Tick tick = 7,
                                     DeviceId tx = 1) {
  std::vector<std::uint8_t> bytes;
  encode_frame({3, seq, tick, tx}, make_reports(tx, 4), bytes);
  return bytes;
}

/// Drain every decodable frame, returning how many came out.
std::size_t drain(FrameDecoder& decoder) {
  std::size_t n = 0;
  while (decoder.next() != nullptr) ++n;
  return n;
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  const auto bytes = encode_one(41, 7, 1);
  EXPECT_EQ(bytes.size(), wire_frame_size(3));

  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->header.station_id, 3);
  EXPECT_EQ(frame->header.seq, 41u);
  EXPECT_EQ(frame->header.tick, 7);
  EXPECT_EQ(frame->header.tx, 1);
  ASSERT_EQ(frame->reports.size(), 3u);
  EXPECT_EQ(frame->reports[0].rx, 0);
  EXPECT_EQ(frame->reports[0].rssi_dbm, -40);
  EXPECT_EQ(frame->reports[2].rx, 3);
  EXPECT_EQ(frame->reports[2].rssi_dbm, -43);

  EXPECT_EQ(decoder.next(), nullptr);
  decoder.finish();
  EXPECT_EQ(decoder.counters().frames_ok, 1u);
  EXPECT_EQ(decoder.counters().reports, 3u);
  EXPECT_EQ(decoder.counters().rejected_frames(), 0u);
}

TEST(WireTest, NegativeTickSurvivesTheWire) {
  std::vector<std::uint8_t> bytes;
  encode_frame({0, 0, -5, 0}, make_reports(0, 2), bytes);
  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->header.tick, -5);
}

TEST(WireTest, ToMeasurementsExpandsTheBatch) {
  const auto bytes = encode_one(0, 9, 2);
  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  std::vector<Measurement> out;
  to_measurements(*frame, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tx, 2);
  EXPECT_EQ(out[0].rx, 0);
  EXPECT_EQ(out[0].tick, 9);
  EXPECT_DOUBLE_EQ(out[0].rssi_dbm, -40.0);
}

TEST(WireTest, DecodesAcrossArbitraryChunkBoundaries) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    const auto one = encode_one(seq, static_cast<Tick>(seq), 1);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameDecoder decoder;
  std::size_t decoded = 0;
  // Worst case: one byte per feed.
  for (const std::uint8_t byte : stream) {
    decoder.feed({&byte, 1});
    decoded += drain(decoder);
  }
  decoder.finish();
  EXPECT_EQ(decoded, 5u);
  EXPECT_EQ(decoder.counters().frames_ok, 5u);
  EXPECT_EQ(decoder.counters().rejected_frames(), 0u);
}

TEST(WireTest, ResynchronisesPastGarbage) {
  const auto frame = encode_one();
  std::vector<std::uint8_t> stream = {'g', 'a', 'r', 'b', 'a', 'g', 'e'};
  stream.insert(stream.end(), frame.begin(), frame.end());
  stream.insert(stream.end(), {0xFF, 0x00, 0xAB});
  const auto second = encode_one(1, 8, 2);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(stream);
  EXPECT_EQ(drain(decoder), 2u);
  decoder.finish();
  EXPECT_EQ(decoder.counters().frames_ok, 2u);
  EXPECT_EQ(decoder.counters().resync_bytes, 10u);
}

TEST(WireTest, EverySingleBitFlipIsRejectedWithoutThrowing) {
  // The whole-frame corpus: flip each byte in turn.  Payload flips must
  // fail the CRC; magic/header flips must resync — either way, no valid
  // frame, no throw, and the rejection lands in a counter.
  const auto clean = encode_one();
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto corrupt = clean;
    corrupt[i] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(corrupt);
    EXPECT_EQ(drain(decoder), 0u) << "flip at byte " << i;
    decoder.finish();
    const WireCounters& c = decoder.counters();
    EXPECT_EQ(c.frames_ok, 0u) << "flip at byte " << i;
    EXPECT_GT(c.rejected_frames() + c.resync_bytes, 0u)
        << "flip at byte " << i;
  }
}

TEST(WireTest, CorruptFrameDoesNotSwallowTheNextOne) {
  auto first = encode_one(0, 1, 1);
  first[30] ^= 0x40;  // corrupt a report byte: CRC must reject
  const auto second = encode_one(1, 2, 1);
  std::vector<std::uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(stream);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->header.tick, 2);
  EXPECT_EQ(decoder.next(), nullptr);
  decoder.finish();
  EXPECT_EQ(decoder.counters().bad_crc, 1u);
  EXPECT_EQ(decoder.counters().frames_ok, 1u);
}

TEST(WireTest, RejectsWrongVersionAndFlags) {
  auto bytes = encode_one();
  bytes[4] = 99;  // version
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_EQ(drain(decoder), 0u);
  EXPECT_EQ(decoder.counters().bad_version, 1u);

  bytes = encode_one();
  bytes[5] = 2;  // reserved flags (beyond the auth bit) must be zero
  FrameDecoder flags_decoder;
  flags_decoder.feed(bytes);
  EXPECT_EQ(drain(flags_decoder), 0u);
  EXPECT_EQ(flags_decoder.counters().bad_version, 1u);
}

TEST(WireTest, RejectsOversizedAndZeroCounts) {
  auto bytes = encode_one();
  bytes[26] = 0xFF;  // count low byte
  bytes[27] = 0xFF;  // count high byte: 65535 > kMaxFrameReports
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_EQ(drain(decoder), 0u);
  EXPECT_GE(decoder.counters().bad_length, 1u);

  bytes = encode_one();
  bytes[26] = 0;
  bytes[27] = 0;
  FrameDecoder zero_decoder;
  zero_decoder.feed(bytes);
  EXPECT_EQ(drain(zero_decoder), 0u);
  EXPECT_GE(zero_decoder.counters().bad_length, 1u);
}

TEST(WireTest, TruncatedTailIsCountedOnFinish) {
  const auto clean = encode_one();
  FrameDecoder decoder;
  decoder.feed({clean.data(), clean.size() - 5});
  EXPECT_EQ(drain(decoder), 0u);  // waits for the rest of the frame
  decoder.finish();
  EXPECT_EQ(decoder.counters().truncated, 1u);
  EXPECT_EQ(decoder.counters().frames_ok, 0u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);

  // The decoder is reusable after finish().
  decoder.feed(clean);
  EXPECT_EQ(drain(decoder), 1u);
}

// Sequence numbers are the defender's to judge, after authentication:
// the decoder delivers gapped and reordered frames as they come.
TEST(WireTest, DeliversGappedAndReorderedSequencesUnjudged) {
  std::vector<std::uint8_t> stream;
  const auto reports = make_reports(0, 2);
  for (const std::uint64_t seq : {0ull, 1ull, 5ull, 4ull, 6ull}) {
    encode_frame({7, seq, static_cast<Tick>(seq), 0}, reports, stream);
  }
  encode_frame({8, 0, 0, 0}, reports, stream);
  encode_frame({8, 1, 1, 0}, reports, stream);

  FrameDecoder decoder;
  decoder.feed(stream);
  EXPECT_EQ(drain(decoder), 7u);
  EXPECT_EQ(decoder.counters().frames_ok, 7u);
  EXPECT_EQ(decoder.counters().rejected_frames(), 0u);
}

TEST(WireTest, EncoderRejectsContractViolations) {
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_frame({0, 0, 0, 0}, {}, out), ContractViolation);
  const std::vector<WireReport> too_many(kMaxFrameReports + 1);
  EXPECT_THROW(encode_frame({0, 0, 0, 0}, too_many, out),
               ContractViolation);
}

TEST(WireTest, AuthenticatedRoundTripSurfacesTheTag) {
  const WireKey key = derive_station_key(42, 3);
  const auto reports = make_reports(1, 4);
  std::vector<std::uint8_t> bytes;
  const FrameHeader header{3, 41, 7, 1};
  encode_frame(header, reports, bytes, &key);
  EXPECT_EQ(bytes.size(), wire_frame_size(3, /*authenticated=*/true));
  EXPECT_EQ(bytes[5], kWireFlagAuth);

  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(frame->authenticated);
  EXPECT_EQ(frame->tag, frame_tag(key, header, reports));
  EXPECT_TRUE(verify_frame_tag(key, *frame));
  ASSERT_EQ(frame->reports.size(), 3u);
  EXPECT_EQ(frame->reports[0].rssi_dbm, -40);
  EXPECT_EQ(decoder.counters().rejected_frames(), 0u);
}

/// Report counts whose batches end at every byte offset mod 8 (3n mod 8
/// takes all eight values over n = 1..8), twice, plus the largest frame.
std::vector<std::size_t> tag_test_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 16; ++n) counts.push_back(n);
  counts.push_back(kMaxFrameReports);
  return counts;
}

/// Seeded reports whose receiver ids and RSSI bytes span their ranges.
std::vector<WireReport> seeded_reports(std::size_t n, std::uint64_t seed) {
  std::vector<WireReport> reports(n);
  std::uint64_t z = seed;
  for (WireReport& r : reports) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    r.rx = static_cast<DeviceId>(z >> 48);
    r.rssi_dbm = static_cast<std::int8_t>(z >> 24);
  }
  return reports;
}

FrameHeader tag_test_header(std::size_t n) {
  return {static_cast<std::uint16_t>(0xBEEF - n), 0x0123456789ABCDEFULL + n,
          -static_cast<Tick>(n) * 1000003, static_cast<DeviceId>(0xCAFE + n)};
}

std::uint64_t load_le(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

TEST(WireTest, FrameTagEqualsTheEncodersTag) {
  const WireKey key = derive_station_key(42, 3);
  for (const std::size_t n : tag_test_counts()) {
    const FrameHeader header = tag_test_header(n);
    const std::vector<WireReport> reports = seeded_reports(n, n);
    std::vector<std::uint8_t> bytes;
    encode_frame(header, reports, bytes, &key);
    const std::uint64_t encoded =
        load_le(bytes.data() + kWireHeaderSize + kWireReportSize * n, 8);
    EXPECT_EQ(frame_tag(key, header, reports), encoded) << n << " reports";
  }
}

TEST(WireTest, FlippingAnyCoveredByteChangesTheTag) {
  // Flip each tag-covered byte [4, 28+3n) of an encoded frame.  The tag
  // over the flipped bytes must differ, and where the byte is a
  // frame_tag input (every byte but version, flags and the count, which
  // frame_tag derives), frame_tag of the fields read back from the
  // flipped bytes must equal it: frame_tag covers every byte, each in
  // its place.
  const WireKey key = derive_station_key(42, 3);
  for (const std::size_t n : tag_test_counts()) {
    const FrameHeader header = tag_test_header(n);
    const std::vector<WireReport> reports = seeded_reports(n, n + 100);
    std::vector<std::uint8_t> bytes;
    encode_frame(header, reports, bytes, &key);
    const std::uint64_t tag = frame_tag(key, header, reports);
    std::vector<std::uint8_t> covered(
        bytes.begin() + 4,
        bytes.begin() +
            static_cast<std::ptrdiff_t>(kWireHeaderSize +
                                        kWireReportSize * n));
    FrameHeader h;
    std::vector<WireReport> r(n);
    for (std::size_t i = 0; i < covered.size(); ++i) {
      covered[i] ^= 0x5A;
      const std::uint64_t flipped =
          siphash24(key.k0, key.k1, covered.data(), covered.size());
      ASSERT_NE(flipped, tag) << n << " reports, byte " << i;
      if (i >= 2 && i != 22 && i != 23) {
        const std::uint8_t* c = covered.data();
        h.station_id = static_cast<std::uint16_t>(load_le(c + 2, 2));
        h.seq = load_le(c + 4, 8);
        h.tick = static_cast<Tick>(load_le(c + 12, 8));
        h.tx = static_cast<DeviceId>(load_le(c + 20, 2));
        for (std::size_t k = 0; k < n; ++k) {
          const std::uint8_t* q = c + 24 + kWireReportSize * k;
          r[k] = {static_cast<DeviceId>(load_le(q, 2)),
                  static_cast<std::int8_t>(q[2])};
        }
        ASSERT_EQ(frame_tag(key, h, r), flipped)
            << n << " reports, byte " << i;
      }
      covered[i] ^= 0x5A;
    }
  }
}

TEST(WireTest, WrongKeyOrUnauthenticatedFrameFailsVerification) {
  const WireKey key = derive_station_key(42, 3);
  const auto reports = make_reports(1, 4);
  std::vector<std::uint8_t> bytes;
  encode_frame({3, 41, 7, 1}, reports, bytes, &key);
  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);
  EXPECT_FALSE(verify_frame_tag(derive_station_key(42, 4), *frame));
  EXPECT_FALSE(verify_frame_tag(derive_station_key(43, 3), *frame));

  // An unauthenticated frame never verifies, under any key.
  std::vector<std::uint8_t> plain;
  encode_frame({3, 41, 7, 1}, reports, plain);
  FrameDecoder plain_decoder;
  plain_decoder.feed(plain);
  const DecodedFrame* unsigned_frame = plain_decoder.next();
  ASSERT_NE(unsigned_frame, nullptr);
  EXPECT_FALSE(unsigned_frame->authenticated);
  EXPECT_FALSE(verify_frame_tag(key, *unsigned_frame));
}

TEST(WireTest, TamperedButCrcPatchedFrameFailsTheTag) {
  // The attacker model: modify a signed frame's payload and recompute
  // the CRC (public), but not the tag (keyed).  The decoder delivers
  // the frame — it is keyless — and verification must catch it.
  const WireKey key = derive_station_key(7, 0);
  const auto reports = make_reports(0, 3);
  std::vector<std::uint8_t> bytes;
  encode_frame({0, 5, 2, 0}, reports, bytes, &key);
  bytes[kWireHeaderSize + 2] ^= 0x7F;  // first report's RSSI
  const std::size_t crc_off = bytes.size() - kWireTrailerSize;
  const std::uint32_t crc = crc32(bytes.data() + 4, crc_off - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[crc_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }

  FrameDecoder decoder;
  decoder.feed(bytes);
  const DecodedFrame* frame = decoder.next();
  ASSERT_NE(frame, nullptr);  // keyless decode accepts the patched CRC
  EXPECT_TRUE(frame->authenticated);
  EXPECT_FALSE(verify_frame_tag(key, *frame));
}

TEST(WireTest, DeriveStationKeyIsDeterministicAndPerStation) {
  const WireKey a = derive_station_key(1000, 5);
  const WireKey b = derive_station_key(1000, 5);
  EXPECT_EQ(a.k0, b.k0);
  EXPECT_EQ(a.k1, b.k1);

  const WireKey other_station = derive_station_key(1000, 6);
  EXPECT_NE(a.k0, other_station.k0);
  EXPECT_NE(a.k1, other_station.k1);

  const WireKey other_seed = derive_station_key(1001, 5);
  EXPECT_NE(a.k0, other_seed.k0);
  EXPECT_NE(a.k1, other_seed.k1);

  EXPECT_NE(a.k0, a.k1);  // halves carry independent mixes
}

TEST(WireTest, HealthBlockFlattensCounters) {
  WireCounters counters;
  counters.frames_ok = 3;
  counters.bad_crc = 2;
  counters.truncated = 1;
  const obs::HealthBlock block = health_block(counters);
  EXPECT_EQ(block.name, "wire_decoder");
  bool saw_rejected = false;
  for (const auto& [field, value] : block.fields) {
    if (field == "rejected_frames") {
      saw_rejected = true;
      EXPECT_DOUBLE_EQ(value, 3.0);  // bad_crc + truncated
    }
  }
  EXPECT_TRUE(saw_rejected);
}

}  // namespace
}  // namespace fadewich::net
