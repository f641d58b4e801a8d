// Physical-consistency checks over per-link RSSI streams.
//
// Frame authentication (net::verify_frame_tag) stops outsiders; it does
// nothing against a compromised station key or RF-layer jamming, which
// produce well-formed, correctly-signed frames whose *values* are wrong.
// This layer judges the values themselves against physics the attacker
// does not control:
//
//   1. Static bound — a link's RSSI can fade far below its free-path
//      level (obstruction, multipath), but it cannot exceed
//      tx_power - PL(distance) by more than the deployment's shadowing /
//      interference budget.  Samples above the bound are impossible and
//      dropped immediately.
//   2. Variance cap — movement raises a window's standard deviation by a
//      couple of dB; jam-mimic noise powerful enough to force MD
//      triggers raises it far beyond anything a walking human produces.
//      Samples arrive as int8 wire dBm, so each link keeps an exact
//      integer sum and sum of squares over its window and tests
//      n*Sx2 - Sx^2 > (cap*n)^2: no sqrt, no drift, and a window whose
//      std equals a cap exactly is never "over".
//   3. Stuck-value runs — jam-mask (replaying a frozen level to hide
//      movement) yields repeat runs orders of magnitude longer than a
//      quantised-but-live radio ever emits.
//
// Violations feed a per-link suspicion score; crossing the threshold
// quarantines the link for a fixed tick budget.  Quarantined links are
// dropped at ingest, which drives the CentralStation's validity-mask /
// imputation path — the same graceful degradation as a dead sensor —
// instead of feeding MD attacker-chosen values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/rf/geometry.hpp"
#include "fadewich/rf/pathloss.hpp"

namespace fadewich::defend {

struct ConsistencyConfig {
  /// Headroom above the geometric static level before a sample is
  /// impossible.  Budget: 3-sigma link shadowing (~6 dB) + fading
  /// (~3 dB) + interference bursts (~10 dB) + quantisation.
  double margin_up_db = 22.0;
  /// Absolute floor: nothing below this is a real radio report.
  double floor_dbm = -110.0;
  /// Rolling standard deviation above this flags the link (dB).  Human
  /// movement peaks near 3-4 dB on the paper's geometry; jam-mimic
  /// noise strong enough to trigger MD sits well above 8.
  double max_window_std_db = 8.0;
  /// Standard deviation above this is treated like an impossible value:
  /// heavy suspicion, immediate drop.  No indoor channel reaches it
  /// without deliberate interference.
  double hard_window_std_db = 16.0;
  std::size_t window_ticks = 25;  // 5 s at 5 Hz (at most kMaxWindowTicks)
  /// Identical consecutive values before the link is called frozen.
  /// Live quantised radios repeat, but runs this long (60 s at 5 Hz)
  /// only come from a masked/replayed stream.
  std::size_t stuck_run_ticks = 300;
  /// Suspicion accounting: violations add weight, clean ticks decay one
  /// point, crossing the threshold quarantines the link.
  std::uint32_t suspicion_threshold = 16;
  std::uint32_t bound_weight = 8;     // impossible sample
  std::uint32_t variance_weight = 2;  // over-variance window
  std::uint32_t stuck_weight = 16;    // frozen run: conclusive
  /// Quarantine period.  Sliding: a violation while quarantined re-arms
  /// the full period, so release requires this long *clean*.
  Tick quarantine_ticks = 600;        // 2 min at 5 Hz
};

// Every verdict except kOk means "do not feed this sample downstream":
// an over-variance sample may be an honest outlier, but imputing it
// costs one stale cell while passing it hands MD an attacker-shaped
// value, so suspicion always errs toward the imputation path.
enum class SampleVerdict : std::uint8_t {
  kOk = 0,
  kImpossible,      // above static bound or below floor
  kExcessVariance,  // window std over the soft cap
  kStuck,           // frozen-run trigger
  kQuarantined,     // link under quarantine
};

class ConsistencyChecker {
 public:
  /// Longest window whose n*Sx2 - Sx^2 over int8 samples stays exact in
  /// a double (n^2 * 128^2 < 2^53).
  static constexpr std::size_t kMaxWindowTicks = 1u << 19;

  /// Geometry-free checker: the static bound degenerates to the floor
  /// check only; variance and stuck-run checks stay active.
  ConsistencyChecker(std::size_t device_count, ConsistencyConfig config);

  /// Geometry-aware checker.  `positions[d]` is device d's location;
  /// per-link static bounds are tx_power - PL(distance) + margin_up.
  ConsistencyChecker(std::size_t device_count, ConsistencyConfig config,
                     const std::vector<rf::Point>& positions,
                     const rf::PathLossConfig& path_loss,
                     double tx_power_dbm);

  /// Judge one int8 wire-dBm sample on stream `s` at tick `now`.
  /// Updates suspicion and may start a quarantine as a side effect.
  SampleVerdict check(std::size_t stream, std::int8_t rssi_dbm, Tick now);

  bool quarantined(std::size_t stream, Tick now) const;
  std::size_t quarantined_count(Tick now) const;

  /// Lifetime quarantine entries (a link re-quarantined counts again).
  std::uint64_t quarantines() const { return quarantines_; }

  std::size_t stream_count() const { return links_.size(); }
  std::size_t window_ticks() const { return window_; }
  const ConsistencyConfig& config() const { return config_; }

  /// The static upper bound for a stream (+inf when geometry-free).
  double static_bound_dbm(std::size_t stream) const {
    return bounds_[stream];
  }

 private:
  // Everything one sample touches besides its ring slice.
  struct LinkState {
    std::int64_t sum = 0;         // exact Sx over the window
    std::int64_t sum_sq = 0;      // exact Sx2 over the window
    Tick quarantine_until = -1;   // exclusive; -1 = never quarantined
    std::uint32_t count = 0;      // samples in the window (<= window_)
    std::uint32_t head = 0;       // ring slot the next sample writes
    std::uint32_t run = 1;        // current identical-value run length
    std::uint32_t suspicion = 0;
    std::int8_t last = 0;
    bool has_last = false;
  };

  void raise(LinkState& link, std::uint32_t weight, Tick now);

  ConsistencyConfig config_;
  std::size_t window_;            // window length in samples (>= 1)
  double soft_limit_ = 0.0;       // (max_window_std_db * n)^2
  double hard_limit_ = 0.0;       // (hard_window_std_db * n)^2
  std::vector<double> bounds_;    // per-stream static upper bound (dBm)
  std::vector<LinkState> links_;
  std::vector<std::int8_t> ring_; // streams x window_ wire samples
  std::uint64_t quarantines_ = 0;
};

}  // namespace fadewich::defend
