// The binary wire format for sensor reports — the front door a real
// deployment would ingest at line rate.
//
// One frame carries one transmitter's beacon round as heard by its
// receivers: every receiver's RSSI for one (station, tick, tx), batched
// so per-report framing overhead stays a few bytes.  Layout, all fields
// little-endian:
//
//   offset size  field
//   0      4     magic 'F' 'D' 'W' 'F'
//   4      1     version (currently 1)
//   5      1     flags (bit 0: authenticated trailer; others must be 0)
//   6      2     station id
//   8      8     sequence number (per-station, increments per frame)
//   16     8     tick (int64)
//   24     2     transmitter device id
//   26     2     report count n (1 .. kMaxFrameReports)
//   28     3*n   n x { receiver device id (u16), rssi (int8 dBm) }
//   28+3n  [8]   SipHash-2-4 tag over bytes [4, 28+3n) under the
//                station's key — present iff flags bit 0 is set
//   ...    4     CRC-32 (common::Crc32) over bytes [4, crc offset)
//
// RSSI rides as int8 dBm in the sim::Recording encoding ([-128, 0]
// covers every real radio's reporting range), so replaying a recording
// over the wire reproduces the in-process byte stream exactly.
//
// FrameDecoder is the receive side: feed it bytes in arbitrary chunks
// and pull frames.  It never throws on input bytes — a truncated,
// bit-flipped, or oversized frame is counted in WireCounters (the same
// count-don't-abort taxonomy as net::FaultInjector) and the decoder
// resynchronises on the next magic, so one corrupt frame costs exactly
// that frame.  Sequence-number gaps and reordering are counted per
// station but never block delivery: the CentralStation's tick-indexed
// assembly already tolerates reordered reports.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/net/measurement.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::net {

inline constexpr std::uint8_t kWireVersion = 1;
/// Flags bit 0: the frame carries a keyed authentication tag before the
/// CRC trailer.  All other flag bits remain reserved-zero.
inline constexpr std::uint8_t kWireFlagAuth = 0x01;
inline constexpr std::size_t kWireHeaderSize = 28;
inline constexpr std::size_t kWireReportSize = 3;
inline constexpr std::size_t kWireTagSize = 8;
inline constexpr std::size_t kWireTrailerSize = 4;
/// Receivers per frame: one frame batches at most one beacon round, and
/// no supported deployment exceeds 4096 devices (sim recording cap).
inline constexpr std::size_t kMaxFrameReports = 4095;

/// Total encoded size of a frame carrying `reports` measurements.
constexpr std::size_t wire_frame_size(std::size_t reports,
                                      bool authenticated = false) {
  return kWireHeaderSize + kWireReportSize * reports +
         (authenticated ? kWireTagSize : 0) + kWireTrailerSize;
}

/// A station's 128-bit frame-authentication key.
struct WireKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

/// Deterministic per-station key schedule: every station derives its own
/// 128-bit key from the deployment's master seed, so provisioning one
/// secret provisions the fleet and a captured station compromises only
/// its own identity.
WireKey derive_station_key(std::uint64_t master_seed,
                           std::uint16_t station_id);

/// One receiver's entry in a frame's report batch.
struct WireReport {
  DeviceId rx = 0;
  std::int8_t rssi_dbm = 0;
};

/// The per-frame header fields (everything but the report batch).
struct FrameHeader {
  std::uint16_t station_id = 0;
  std::uint64_t seq = 0;
  Tick tick = 0;
  DeviceId tx = 0;
};

/// A decoded frame.  `reports` storage is owned by the decoder and
/// reused between next() calls — copy out what must outlive the pull.
/// The decoder is keyless: it surfaces the tag of an authenticated frame
/// and leaves verification to the defender (verify_frame_tag).
struct DecodedFrame {
  FrameHeader header;
  std::vector<WireReport> reports;
  bool authenticated = false;
  std::uint64_t tag = 0;
};

/// The int8 dBm wire encoding, identical to sim::Recording::encode_dbm
/// so live capture and recording playback quantise the same way.
std::int8_t wire_encode_dbm(double rssi_dbm);

/// Append one encoded frame to `out`.  Requires 1 <= reports.size() <=
/// kMaxFrameReports (contract: the encoder runs on trusted data).  With
/// a key, the frame carries the authenticated trailer (flags bit 0 set,
/// SipHash tag between reports and CRC).
void encode_frame(const FrameHeader& header,
                  std::span<const WireReport> reports,
                  std::vector<std::uint8_t>& out,
                  const WireKey* key = nullptr);

/// The tag an authentic frame with this content would carry under `key`.
std::uint64_t frame_tag(const WireKey& key, const FrameHeader& header,
                        std::span<const WireReport> reports);

/// Verify a decoded frame's tag against the station key.  False for
/// unauthenticated frames and for tag mismatches.
bool verify_frame_tag(const WireKey& key, const DecodedFrame& frame);

/// Expand a decoded frame into station measurements (int8 -> double),
/// appending to `out`.
void to_measurements(const DecodedFrame& frame,
                     std::vector<Measurement>& out);

/// Decode-side degradation counters.  Like FaultInjector::Counters,
/// every abnormal input is counted, never thrown.
struct WireCounters {
  std::uint64_t frames_ok = 0;      // frames delivered to the caller
  std::uint64_t reports = 0;        // measurements inside those frames
  std::uint64_t bad_version = 0;    // unknown version or nonzero flags
  std::uint64_t bad_length = 0;     // zero or oversized report count
  std::uint64_t bad_crc = 0;        // payload failed the CRC trailer
  std::uint64_t resync_bytes = 0;   // bytes skipped hunting for magic
  std::uint64_t truncated = 0;      // partial frames cut off by finish()

  /// Frames inspected and refused (resync skips are counted in bytes,
  /// not here: arbitrary garbage has no frame boundaries to count).
  std::uint64_t rejected_frames() const {
    return bad_version + bad_length + bad_crc + truncated;
  }
};

/// Flatten decoder counters for obs::ScrapeReport.
obs::HealthBlock health_block(const WireCounters& counters);

/// A zero-copy view of one frame inside a caller-owned buffer.  This is
/// the lane decoder's unit of work: header fields are parsed out, but
/// the report batch stays in place (`reports` points into the scanned
/// bytes), so decoding a capture never copies its payload.  The view is
/// valid only while the scanned buffer is.
struct FrameView {
  FrameHeader header;
  std::uint16_t count = 0;
  bool authenticated = false;
  std::uint64_t tag = 0;
  std::size_t size = 0;                   // total encoded frame bytes
  const std::uint8_t* reports = nullptr;  // count x kWireReportSize

  WireReport report(std::size_t i) const {
    const std::uint8_t* p = reports + i * kWireReportSize;
    return {static_cast<DeviceId>(p[0] | (p[1] << 8)),
            static_cast<std::int8_t>(p[2])};
  }
};

/// One step of the byte-hunting decode loop, shared by FrameDecoder and
/// the sharded ingest plane's lane workers.  Every outcome but kFrame
/// and kNeedMore advances the hunt by exactly one byte, so a corrupt
/// length field can never swallow the valid frames behind it.
enum class ScanOutcome : std::uint8_t {
  kFrame,       // `view` holds a validated frame; advance by view.size
  kResync,      // no magic at pos; advance one byte
  kBadVersion,  // magic but unknown version or flags; advance one byte
  kBadLength,   // zero or oversized report count; advance one byte
  kBadCrc,      // fully parsed but failed the CRC trailer; advance one
                // byte.  view.header/count/size are filled so callers
                // can attribute the rejection — but they are UNTRUSTED
  kNeedMore,    // the suffix may be a frame prefix; feed more bytes or
                // close out with finish_scan()
};

/// Classify the bytes at `bytes[pos..]`.  Requires pos <= bytes.size().
/// `counters` is updated to match the outcome (frames_ok/reports on
/// kFrame, the rejection buckets otherwise); kNeedMore counts nothing —
/// the caller either feeds more bytes or calls finish_scan().  Never
/// throws on any input byte sequence.
ScanOutcome scan_frame(std::span<const std::uint8_t> bytes,
                       std::size_t pos, FrameView& view,
                       WireCounters& counters);

/// End-of-stream accounting for the tail a scan left behind (kNeedMore):
/// a magic-led fragment counts as one truncated frame, anything else as
/// resync bytes.  Returns bytes.size().
std::size_t finish_scan(std::span<const std::uint8_t> bytes,
                        std::size_t pos, WireCounters& counters);

/// The first offset at or after `from` holding a CRC-validated frame, or
/// bytes.size() when the suffix holds none.  This is how the sharded
/// ingest plane aligns lane boundaries to real frame starts: a validated
/// frame is one the single-lane hunt would also deliver, so planning on
/// validated starts partitions the stream without double-delivery.
std::size_t find_frame_boundary(std::span<const std::uint8_t> bytes,
                                std::size_t from);

class FrameDecoder {
 public:
  FrameDecoder() = default;

  /// Buffer a chunk of the byte stream.  Chunk boundaries are arbitrary:
  /// frames may span feeds.
  void feed(std::span<const std::uint8_t> bytes);

  /// Decode and return the next valid frame, or nullptr when the
  /// buffered bytes hold none (feed more).  Invalid bytes are counted
  /// and skipped.  The returned frame is valid until the next call.
  const DecodedFrame* next();

  /// Declare end-of-stream: any buffered partial frame is counted as
  /// truncated and discarded.  The decoder is reusable afterwards.
  void finish();

  /// Bytes fed but not yet consumed by next().
  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

  const WireCounters& counters() const { return counters_; }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  DecodedFrame frame_;   // reused output storage
  WireCounters counters_;
};

}  // namespace fadewich::net
