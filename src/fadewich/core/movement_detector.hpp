// Movement Detection module (Section IV-C).
//
// Per tick, MD pushes every stream's new RSSI sample into a short sliding
// window, sums the per-stream standard deviations
//
//   s_t = sum_i sigma(V^(i)_{t-d, t})
//
// and compares s_t against the normal profile's percentile threshold.
// Runs of anomalous ticks form *variation windows* [t1, t2]; sub-threshold
// gaps shorter than `merge_gap` do not split a window (RSSI is noisy at
// sample granularity).  Windows shorter than t_delta are ignored by the
// controller, not by MD — MD reports every window plus the live duration
// dW_t the controller's state machine keys on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/core/normal_profile.hpp"
#include "fadewich/obs/export.hpp"
#include "fadewich/stats/window_bank.hpp"

namespace fadewich::core {

struct MovementDetectorConfig {
  Seconds std_window = 2.0;    // d: per-stream std-dev window
  Seconds calibration = 60.0;  // quiet period used to seed the profile
  Seconds merge_gap = 0.6;     // max sub-threshold gap inside one window
  // Degraded-tick fallback: when fewer than this fraction of streams
  // carry fresh (non-imputed) samples, s_t is held at its previous value
  // and the profile is not updated — the tick neither opens nor closes
  // variation windows on its own.
  double min_live_fraction = 0.5;
  NormalProfileConfig profile;
};

struct VariationWindow {
  Tick begin = 0;  // first anomalous tick
  Tick end = 0;    // last anomalous tick (inclusive)
};

enum class MdState {
  kCalibrating,  // profile not yet available
  kNormal,
  kAnomalous,
};

/// MD's durable state for persistence: the learned profile (plus its
/// pending update queue) and the tick clock — only what decisions read.
/// The health block's counts (windows, degraded ticks) live as long as
/// the detector instance and are not persisted.  The per-stream sliding
/// windows are deliberately *not* persisted either — after a restart
/// their contents would describe a radio environment from before the
/// downtime — so a restored detector re-warms for `std_window` seconds
/// (reporting kCalibrating) before resuming detection.
struct MovementDetectorState {
  Tick now = 0;
  double last_st = 0.0;
  std::vector<double> profile_samples;  // empty = still calibrating
  std::vector<double> profile_queue;
  std::vector<double> calibration_buffer;
};

class MovementDetector {
 public:
  /// Requires stream_count >= 1 and tick_hz > 0.
  MovementDetector(std::size_t stream_count, double tick_hz,
                   MovementDetectorConfig config = {});

  /// Consume one tick of samples (one value per stream).
  MdState step(std::span<const double> rssi_row);

  /// Consume one tick with a per-stream validity mask: `valid[i]` false
  /// marks stream i's sample as stale (e.g. imputed by the central
  /// station after report loss).  Stale samples still enter the stream's
  /// sliding window (the row is the station's best reconstruction) but
  /// are excluded from the Σstddev sum, which is rescaled by
  /// stream_count / live_count so s_t stays comparable to the profile
  /// threshold.  Below `min_live_fraction` live streams the tick is
  /// degraded: s_t holds its previous value and the profile is frozen.
  /// An empty mask means all streams are valid and is bit-identical to
  /// step(rssi_row).
  MdState step(std::span<const double> rssi_row,
               std::span<const std::uint8_t> valid);

  /// Ticks processed so far (the tick index of the next step call).
  Tick now() const { return now_; }
  const TickRate& rate() const { return rate_; }

  /// The most recent s_t (0 until windows fill).
  double last_sum_std() const { return last_st_; }

  /// Fraction of streams with fresh samples on the last step (1 until
  /// a masked step reports staleness).
  double last_live_fraction() const { return last_live_fraction_; }

  /// Ticks this detector instance degraded below min_live_fraction
  /// (an import_state() neither restores nor resets it).
  std::uint64_t degraded_ticks() const { return degraded_ticks_; }

  /// The "md" block: variation windows opened and closed by this
  /// detector instance, and its degraded ticks.
  obs::HealthBlock health_block() const;

  /// Durations of this detector's completed variation windows.
  const obs::HistogramSample& window_seconds() const {
    return window_seconds_;
  }

  /// The open variation window, if any; `end` tracks the last anomalous
  /// tick seen.  A step that closes a window never extends it, so the
  /// window reported before the step that stops reporting it (or starts
  /// a new one) is the closed window.
  std::optional<VariationWindow> current_window() const;

  /// dW_t: duration (seconds) of the current variation window, 0 if none.
  Seconds current_window_duration() const;

  const NormalProfile& profile() const { return profile_; }
  bool calibrated() const { return profile_.initialized(); }

  /// Durable state for persistence.
  MovementDetectorState export_state() const;

  /// Restore from persisted state: the profile and clock come back
  /// exactly, the health counts keep counting; the sliding windows
  /// restart empty, so the detector reports
  /// kCalibrating for the next `std_window` seconds (the re-warm window)
  /// and any variation window open at save time is dropped.  Throws
  /// fadewich::Error on inconsistent state.
  void import_state(const MovementDetectorState& state);

 private:
  /// Count a finished window and observe its duration.
  void close_window(const VariationWindow& window);

  TickRate rate_;
  MovementDetectorConfig config_;
  stats::WindowBank windows_;          // one per-stream window per lane
  std::vector<double> stddev_row_;     // per-tick batched stddev scratch
  bool windows_warm_ = false;  // all per-stream windows have filled once
  NormalProfile profile_;
  std::vector<double> calibration_buffer_;
  Tick calibration_ticks_;
  Tick merge_gap_ticks_;

  Tick now_ = 0;
  double last_st_ = 0.0;
  double last_live_fraction_ = 1.0;
  std::uint64_t degraded_ticks_ = 0;
  std::uint64_t windows_opened_ = 0;
  std::uint64_t windows_closed_ = 0;
  obs::HistogramSample window_seconds_{obs::default_bucket_bounds()};
  std::optional<VariationWindow> open_;
  Tick last_anomalous_ = -1;
};

}  // namespace fadewich::core
