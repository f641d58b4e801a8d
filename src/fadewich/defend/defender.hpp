// The ingestion-path defender: every wire frame passes through here
// between the FrameDecoder and CentralStation::ingest.
//
// Defence in depth, cheapest check first:
//
//   rate limit  -> token bucket per station id: a flood exhausts its
//                  budget, not the station's assembly buffers.
//   frame auth  -> SipHash-2-4 tag under the station's derived key
//                  (net::WireKey).  Outsider forgeries die here.
//   anti-replay -> per-station sliding sequence window (net::SeqWindow).
//                  Replays of captured frames — verbatim or with a
//                  rewritten seq/tick and patched CRC (the tag cannot be
//                  recomputed without the key) — are rejected; a repeat
//                  seq whose *content* differs from the recorded digest
//                  is a spoof conflict and quarantines the station id.
//                  With auth on, the just-verified SipHash tag is that
//                  digest (keyed, over every covered byte); only
//                  unsigned legacy traffic pays for a CRC digest.
//   consistency -> physical checks on the values (defend::
//                  ConsistencyChecker): an insider holding the key can
//                  sign anything, but cannot make impossible RSSI
//                  plausible.  Offending links are quarantined.
//
// Rejected frames and quarantined links simply *vanish* from the
// station's input, so degradation rides the existing PR 2 machinery:
// missing cells are imputed, validity masks flag them stale, and MD/RE
// keep running on what remains.  The defender never throws on input.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fadewich/defend/consistency.hpp"
#include "fadewich/net/seq_window.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::defend {

struct DefendConfig {
  /// Master off-switch: disabled, filter_frame() forwards every report
  /// untouched (bit-identical to a defender-less pipeline).
  bool enabled = true;
  /// Reject frames without a valid authentication tag.  Turn off only
  /// for legacy stations that cannot sign.
  bool require_auth = true;
  /// Master seed of the per-station key schedule
  /// (net::derive_station_key).  Must match the provisioned stations.
  std::uint64_t key_seed = 0x46414445'57494348ULL;  // "FADEWICH"
  /// Token bucket per station id: sustained frames/tick and burst cap.
  /// A station legitimately sends one frame per tick (its beacon round),
  /// so 4/tick leaves generous headroom for retries and reordering.
  double rate_per_tick = 4.0;
  double rate_burst = 64.0;
  /// Physical-consistency thresholds.
  ConsistencyConfig consistency;
  /// Rejoin smoothing: when a stream resumes after a silence longer
  /// than `rejoin_gap_ticks` (outage, quarantine, suppression), its
  /// value stepped while the station was imputing the last held level.
  /// Feeding that step straight to MD looks exactly like movement — a
  /// DoS attacker could deauthenticate users just by jamming a station
  /// on and off.  Instead the defender blends the stream back from the
  /// held value to live over `ramp_ticks`, spreading the step thin
  /// enough that rolling variance stays under MD's trigger.  Never
  /// active on a gap-free (clean) stream.  ramp_ticks = 0 disables.
  Tick rejoin_gap_ticks = 15;  // 3 s at 5 Hz
  Tick ramp_ticks = 100;       // 20 s at 5 Hz

  /// Environment overrides:
  ///   FADEWICH_DEFEND=0|1        enabled (common::env_flag grammar)
  ///   FADEWICH_DEFEND_KEYSEED=n  key_seed (decimal u64, 0 allowed)
  ///   FADEWICH_DEFEND_RATE=x     rate_per_tick > 0 (burst scales 16x)
  /// A set but malformed value throws fadewich::Error.
  static DefendConfig from_env();
};

/// Why a frame was rejected (kAccept = it was not).
enum class FrameVerdict : std::uint8_t {
  kAccept = 0,
  kRateLimited,         // station over its token budget
  kUnknownStation,      // station id outside the deployment
  kUnauthenticated,     // no tag while require_auth
  kBadTag,              // tag does not verify under the station key
  kReplayed,            // seq already accepted with identical content
  kStale,               // seq below the replay window
  kSpoofConflict,       // seq already accepted with *different* content
  kStationQuarantined,  // station id quarantined by a prior conflict
};

struct DefendCounters {
  std::uint64_t frames_checked = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t unknown_station = 0;
  std::uint64_t unauthenticated = 0;
  std::uint64_t bad_tag = 0;
  std::uint64_t replayed = 0;
  std::uint64_t stale = 0;
  std::uint64_t spoof_conflicts = 0;
  std::uint64_t station_quarantine_drops = 0;
  std::uint64_t reports_checked = 0;
  std::uint64_t reports_accepted = 0;
  std::uint64_t impossible_rssi = 0;
  std::uint64_t variance_flags = 0;
  std::uint64_t stuck_drops = 0;
  std::uint64_t link_quarantine_drops = 0;
  std::uint64_t ramped_samples = 0;  // rejoin-smoothed (still delivered)

  std::uint64_t frames_rejected() const {
    return rate_limited + unknown_station + unauthenticated + bad_tag +
           replayed + stale + spoof_conflicts + station_quarantine_drops;
  }
};

/// Flatten defender counters for obs::ScrapeReport.
obs::HealthBlock health_block(const DefendCounters& counters);

class Defender {
 public:
  /// Geometry-free defender (consistency static bound disabled).
  Defender(std::size_t device_count, DefendConfig config);

  /// Geometry-aware defender: device positions enable the per-link
  /// static RSSI bound (see ConsistencyChecker).
  Defender(std::size_t device_count, DefendConfig config,
           const std::vector<rf::Point>& positions,
           const rf::PathLossConfig& path_loss, double tx_power_dbm);

  /// Judge one decoded frame at tick `now` and append the surviving
  /// measurements to `out`.  Rejected frames and quarantined/impossible
  /// reports append nothing; the verdict and counters say why.
  FrameVerdict filter_frame(const net::DecodedFrame& frame, Tick now,
                            std::vector<net::Measurement>& out);

  bool link_quarantined(std::size_t stream, Tick now) const {
    return consistency_.quarantined(stream, now);
  }
  std::size_t quarantined_links(Tick now) const {
    return consistency_.quarantined_count(now);
  }
  bool station_quarantined(std::uint16_t station, Tick now) const;

  const DefendCounters& counters() const { return counters_; }
  const DefendConfig& config() const { return config_; }
  const ConsistencyChecker& consistency() const { return consistency_; }

  /// Publish gauge-style state (quarantined link count) to obs.
  void publish_metrics(Tick now) const;

 private:
  static constexpr std::size_t kRecentRing = 64;  // matches SeqWindow span

  struct StationState {
    net::WireKey key;
    net::SeqWindow window;
    double tokens = 0.0;
    Tick last_refill = 0;
    bool bucket_started = false;
    Tick quarantine_until = -1;
    // Content digests of recently accepted seqs, for replay-vs-spoof
    // discrimination on duplicate sequence numbers.
    std::uint32_t recent_head = 0;
    std::uint32_t recent_count = 0;
    std::array<std::uint64_t, kRecentRing> recent_seq{};
    std::array<std::uint64_t, kRecentRing> recent_digest{};
  };

  // Per-stream rejoin-smoothing state (see DefendConfig::ramp_ticks).
  struct StreamState {
    Tick last_seen = 0;       // tick of the last forwarded sample
    Tick ramp_start = -1;     // -1 = no ramp in progress
    double last_out = 0.0;    // value last forwarded downstream
    double ramp_hold = 0.0;   // level held while the stream was dark
    bool has_out = false;
  };

  void init_state();
  bool take_token(StationState& st, Tick now);
  /// Rejoin smoothing for an accepted sample (see DefendConfig).
  double smooth(StreamState& stream, double value, Tick now);
  /// Replay/spoof content digest: the verified tag under require_auth,
  /// a CRC over the covered content otherwise.
  std::uint64_t content_digest(const net::DecodedFrame& frame) const;
  static void remember(StationState& st, std::uint64_t seq,
                       std::uint64_t digest);
  /// Digest recorded for `seq`, if still in the ring.
  static std::optional<std::uint64_t> recall(const StationState& st,
                                             std::uint64_t seq);

  std::size_t device_count_;
  DefendConfig config_;
  ConsistencyChecker consistency_;
  std::vector<StationState> stations_;
  std::vector<StreamState> streams_;
  DefendCounters counters_;
};

}  // namespace fadewich::defend
