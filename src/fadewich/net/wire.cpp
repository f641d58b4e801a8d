#include "fadewich/net/wire.hpp"

#include <cstring>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/common/siphash.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::net {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'D', 'W', 'F'};

// Explicit little-endian accessors define the byte order of the wire
// independent of the host; compilers collapse them to plain loads and
// stores on little-endian targets.

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

bool starts_with_magic(const std::uint8_t* p) {
  return std::memcmp(p, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace

std::int8_t wire_encode_dbm(double rssi_dbm) {
  return sim::Recording::encode_dbm(rssi_dbm);
}

WireKey derive_station_key(std::uint64_t master_seed,
                           std::uint16_t station_id) {
  // SplitMix64 finalising mix over (seed, station, lane): full avalanche,
  // so neighbouring stations share no key structure.
  const auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  WireKey key;
  key.k0 = mix(master_seed ^ (std::uint64_t{station_id} << 1));
  key.k1 = mix(mix(master_seed) ^ station_id ^ 0xa5a5a5a5a5a5a5a5ULL);
  return key;
}

void encode_frame(const FrameHeader& header,
                  std::span<const WireReport> reports,
                  std::vector<std::uint8_t>& out, const WireKey* key) {
  FADEWICH_EXPECTS(!reports.empty());
  FADEWICH_EXPECTS(reports.size() <= kMaxFrameReports);
  const bool authed = key != nullptr;
  const std::size_t start = out.size();
  out.resize(start + wire_frame_size(reports.size(), authed));
  std::uint8_t* p = out.data() + start;
  std::memcpy(p, kMagic, sizeof(kMagic));
  p[4] = kWireVersion;
  p[5] = authed ? kWireFlagAuth : 0;
  store_u16(p + 6, header.station_id);
  store_u64(p + 8, header.seq);
  store_u64(p + 16, static_cast<std::uint64_t>(header.tick));
  store_u16(p + 24, header.tx);
  store_u16(p + 26, static_cast<std::uint16_t>(reports.size()));
  std::uint8_t* q = p + kWireHeaderSize;
  for (const WireReport& r : reports) {
    store_u16(q, r.rx);
    q[2] = static_cast<std::uint8_t>(r.rssi_dbm);
    q += kWireReportSize;
  }
  const std::size_t tagged =
      kWireHeaderSize - sizeof(kMagic) + kWireReportSize * reports.size();
  if (authed) {
    store_u64(q, siphash24(key->k0, key->k1, p + sizeof(kMagic), tagged));
    q += kWireTagSize;
  }
  const std::size_t covered = tagged + (authed ? kWireTagSize : 0);
  store_u32(q, crc32(p + sizeof(kMagic), covered));
}

std::uint64_t frame_tag(const WireKey& key, const FrameHeader& header,
                        std::span<const WireReport> reports) {
  // Re-serialise the tag-covered bytes [4, 28+3n) exactly as the encoder
  // lays them out.  Thread-local scratch keeps verification
  // allocation-free in steady state.
  static thread_local std::vector<std::uint8_t> scratch;
  const std::size_t covered = kWireHeaderSize - sizeof(kMagic) +
                              kWireReportSize * reports.size();
  scratch.resize(covered);
  std::uint8_t* p = scratch.data();
  p[0] = kWireVersion;
  p[1] = kWireFlagAuth;
  store_u16(p + 2, header.station_id);
  store_u64(p + 4, header.seq);
  store_u64(p + 12, static_cast<std::uint64_t>(header.tick));
  store_u16(p + 20, header.tx);
  store_u16(p + 22, static_cast<std::uint16_t>(reports.size()));
  std::uint8_t* q = p + kWireHeaderSize - sizeof(kMagic);
  for (const WireReport& r : reports) {
    store_u16(q, r.rx);
    q[2] = static_cast<std::uint8_t>(r.rssi_dbm);
    q += kWireReportSize;
  }
  return siphash24(key.k0, key.k1, p, covered);
}

bool verify_frame_tag(const WireKey& key, const DecodedFrame& frame) {
  if (!frame.authenticated) return false;
  return frame_tag(key, frame.header, frame.reports) == frame.tag;
}

void to_measurements(const DecodedFrame& frame,
                     std::vector<Measurement>& out) {
  out.reserve(out.size() + frame.reports.size());
  for (const WireReport& r : frame.reports) {
    out.push_back({frame.header.tx, r.rx, frame.header.tick,
                   static_cast<double>(r.rssi_dbm)});
  }
}

ScanOutcome scan_frame(std::span<const std::uint8_t> bytes,
                       std::size_t pos, FrameView& view,
                       WireCounters& counters) {
  const std::uint8_t* p = bytes.data() + pos;
  const std::size_t avail = bytes.size() - pos;
  if (avail < sizeof(kMagic)) return ScanOutcome::kNeedMore;
  if (!starts_with_magic(p)) {
    ++counters.resync_bytes;
    return ScanOutcome::kResync;
  }
  if (avail < kWireHeaderSize) return ScanOutcome::kNeedMore;
  if (p[4] != kWireVersion || (p[5] & ~kWireFlagAuth) != 0) {
    ++counters.bad_version;
    return ScanOutcome::kBadVersion;
  }
  const bool authed = (p[5] & kWireFlagAuth) != 0;
  const std::uint16_t count = load_u16(p + 26);
  if (count == 0 || count > kMaxFrameReports) {
    ++counters.bad_length;
    return ScanOutcome::kBadLength;
  }
  const std::size_t total = wire_frame_size(count, authed);
  if (avail < total) return ScanOutcome::kNeedMore;
  // Header fields are filled before the CRC verdict so a kBadCrc caller
  // can attribute the rejection (to a shard, a station) — but nothing in
  // a CRC-failed view is trustworthy beyond that.
  view.header.station_id = load_u16(p + 6);
  view.header.seq = load_u64(p + 8);
  view.header.tick = static_cast<Tick>(load_u64(p + 16));
  view.header.tx = load_u16(p + 24);
  view.count = count;
  view.authenticated = authed;
  view.size = total;
  view.reports = p + kWireHeaderSize;
  view.tag =
      authed ? load_u64(p + kWireHeaderSize + kWireReportSize * count) : 0;
  const std::size_t covered = total - sizeof(kMagic) - kWireTrailerSize;
  if (crc32(p + sizeof(kMagic), covered) !=
      load_u32(p + total - kWireTrailerSize)) {
    ++counters.bad_crc;
    return ScanOutcome::kBadCrc;
  }
  ++counters.frames_ok;
  counters.reports += count;
  return ScanOutcome::kFrame;
}

std::size_t finish_scan(std::span<const std::uint8_t> bytes,
                        std::size_t pos, WireCounters& counters) {
  const std::size_t leftover = bytes.size() - pos;
  if (leftover > 0) {
    // A leftover that opens with magic is a genuinely cut-off frame;
    // anything shorter or unaligned is stray bytes being resynced past.
    if (leftover >= sizeof(kMagic) &&
        starts_with_magic(bytes.data() + pos)) {
      ++counters.truncated;
    } else {
      counters.resync_bytes += leftover;
    }
  }
  return bytes.size();
}

std::size_t find_frame_boundary(std::span<const std::uint8_t> bytes,
                                std::size_t from) {
  WireCounters scratch;
  FrameView view;
  std::size_t pos = from;
  while (pos < bytes.size()) {
    switch (scan_frame(bytes, pos, view, scratch)) {
      case ScanOutcome::kFrame:
        return pos;
      case ScanOutcome::kNeedMore:
        // A magic-led fragment that claims more bytes than remain: the
        // single-lane hunt would stall here too, so no validated frame
        // starts at or after `pos`.
        return bytes.size();
      default:
        ++pos;
        break;
    }
  }
  return bytes.size();
}

obs::HealthBlock health_block(const WireCounters& counters) {
  obs::HealthBlock block;
  block.name = "wire_decoder";
  block.add("frames_ok", static_cast<double>(counters.frames_ok));
  block.add("reports", static_cast<double>(counters.reports));
  block.add("bad_version", static_cast<double>(counters.bad_version));
  block.add("bad_length", static_cast<double>(counters.bad_length));
  block.add("bad_crc", static_cast<double>(counters.bad_crc));
  block.add("resync_bytes", static_cast<double>(counters.resync_bytes));
  block.add("truncated", static_cast<double>(counters.truncated));
  block.add("rejected_frames",
            static_cast<double>(counters.rejected_frames()));
  return block;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  compact();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  // Drop the consumed prefix once it dominates the buffer so the memmove
  // amortises to O(1) per byte; never while a caller may hold spans into
  // frame_ (frame_ owns its copies, so any time is safe).
  if (pos_ > 4096 && pos_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

const DecodedFrame* FrameDecoder::next() {
  // One scan_frame step per iteration: deliver a valid frame,
  // reject-and-resync by one byte (so a corrupt length field can never
  // swallow the valid frames behind it), or stop and wait for more
  // bytes.  No input byte sequence throws.
  const std::span<const std::uint8_t> bytes{buffer_.data(),
                                            buffer_.size()};
  FrameView view;
  for (;;) {
    switch (scan_frame(bytes, pos_, view, counters_)) {
      case ScanOutcome::kNeedMore:
        return nullptr;
      case ScanOutcome::kFrame: {
        frame_.header = view.header;
        frame_.authenticated = view.authenticated;
        frame_.tag = view.tag;
        frame_.reports.resize(view.count);  // reuses capacity
        for (std::uint16_t i = 0; i < view.count; ++i) {
          frame_.reports[i] = view.report(i);
        }
        pos_ += view.size;
        return &frame_;
      }
      default:  // kResync / kBadVersion / kBadLength / kBadCrc
        ++pos_;
        break;
    }
  }
}

void FrameDecoder::finish() {
  finish_scan({buffer_.data(), buffer_.size()}, pos_, counters_);
  buffer_.clear();
  pos_ = 0;
}

}  // namespace fadewich::net
