#include "fadewich/core/movement_detector.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"

namespace fadewich::core {

namespace {

std::size_t md_window_ticks(const TickRate& rate,
                            const MovementDetectorConfig& config) {
  return static_cast<std::size_t>(
      std::max<Tick>(2, rate.to_ticks_ceil(config.std_window)));
}

}  // namespace

MovementDetector::MovementDetector(std::size_t stream_count, double tick_hz,
                                   MovementDetectorConfig config)
    : rate_(tick_hz),
      config_(config),
      windows_(std::max<std::size_t>(stream_count, 1),
               md_window_ticks(rate_, config)),
      stddev_row_(stream_count, 0.0),
      profile_(config.profile),
      calibration_ticks_(rate_.to_ticks_ceil(config.calibration)),
      merge_gap_ticks_(rate_.to_ticks_ceil(config.merge_gap)) {
  FADEWICH_EXPECTS(stream_count >= 1);
  FADEWICH_EXPECTS(config.std_window > 0.0);
  FADEWICH_EXPECTS(config.min_live_fraction > 0.0 &&
                   config.min_live_fraction <= 1.0);
}

MdState MovementDetector::step(std::span<const double> rssi_row) {
  return step(rssi_row, {});
}

MdState MovementDetector::step(std::span<const double> rssi_row,
                               std::span<const std::uint8_t> valid) {
  FADEWICH_EXPECTS(rssi_row.size() == windows_.streams());
  FADEWICH_EXPECTS(valid.empty() || valid.size() == windows_.streams());
  const Tick tick = now_++;

  // Two kernel passes over the bank: one lockstep Welford row update, one
  // batched stddev — constant work per (stream, tick) regardless of the
  // window length d, with the per-stream state walked SIMD-wide instead
  // of object-by-object.  Stale samples (valid mask false) still enter
  // the windows — the row is the station's best reconstruction — but
  // only live streams contribute to s_t, summed in stream order so the
  // result matches the per-object loop bit-for-bit.
  windows_.push_row(rssi_row);
  windows_.stddev_into(stddev_row_);
  double st = 0.0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < windows_.streams(); ++i) {
    if (valid.empty() || valid[i]) {
      st += stddev_row_[i];
      ++live;
    }
  }
  if (!windows_warm_) {
    // Every stream receives exactly one sample per tick, so the windows
    // fill in lockstep.
    if (!windows_.full()) return MdState::kCalibrating;
    windows_warm_ = true;
  }

  const auto n = static_cast<double>(windows_.streams());
  const double live_fraction = static_cast<double>(live) / n;
  last_live_fraction_ = live_fraction;
  const bool degraded = live_fraction < config_.min_live_fraction;
  if (degraded) {
    // Too few fresh streams to trust s_t: hold the previous value so the
    // anomaly state persists through the outage instead of flapping.
    ++degraded_ticks_;
    st = last_st_;
  } else if (live < windows_.streams()) {
    // Rescale the partial sum so the threshold calibrated on all streams
    // still applies.  (Skipped when all streams are live, keeping the
    // fault-free path bit-identical.)
    st = st * n / static_cast<double>(live);
  }
  last_st_ = st;

  if (!profile_.initialized()) {
    if (!degraded) calibration_buffer_.push_back(st);
    if (static_cast<Tick>(calibration_buffer_.size()) >=
        calibration_ticks_) {
      profile_.initialize(std::move(calibration_buffer_));
      calibration_buffer_.clear();
    }
    return MdState::kCalibrating;
  }

  const bool anomalous = st >= profile_.threshold();
  if (!degraded) profile_.offer(st);

  if (anomalous) {
    if (open_ && tick - last_anomalous_ <= merge_gap_ticks_) {
      open_->end = tick;  // extend (possibly across a short gap)
    } else {
      if (open_) close_window(*open_);
      open_ = VariationWindow{tick, tick};
      ++windows_opened_;
    }
    last_anomalous_ = tick;
    return MdState::kAnomalous;
  }

  if (open_ && tick - last_anomalous_ > merge_gap_ticks_) {
    close_window(*open_);
    open_.reset();
  }
  return MdState::kNormal;
}

void MovementDetector::close_window(const VariationWindow& window) {
  ++windows_closed_;
  window_seconds_.observe(rate_.to_seconds(window.end - window.begin + 1));
}

MovementDetectorState MovementDetector::export_state() const {
  MovementDetectorState state;
  state.now = now_;
  state.last_st = last_st_;
  if (profile_.initialized()) {
    state.profile_samples = profile_.samples_snapshot();
    state.profile_queue = profile_.queue_snapshot();
  } else {
    state.calibration_buffer = calibration_buffer_;
  }
  return state;
}

void MovementDetector::import_state(const MovementDetectorState& state) {
  if (state.now < 0) throw Error("md state has a negative tick clock");
  if (static_cast<Tick>(state.calibration_buffer.size()) >
      calibration_ticks_) {
    throw Error("md state calibration buffer exceeds the calibration span");
  }
  if (state.profile_samples.empty()) {
    // Still calibrating at save time: resume accumulating quiet samples.
    profile_ = NormalProfile(config_.profile);
    calibration_buffer_ = state.calibration_buffer;
  } else {
    profile_.restore(state.profile_samples, state.profile_queue);
    calibration_buffer_.clear();
  }
  now_ = state.now;
  last_st_ = state.last_st;
  last_live_fraction_ = 1.0;
  // The sliding windows restart empty: detection resumes once they fill.
  windows_.clear();
  windows_warm_ = false;
  open_.reset();
  last_anomalous_ = -1;
}

std::optional<VariationWindow> MovementDetector::current_window() const {
  return open_;
}

obs::HealthBlock MovementDetector::health_block() const {
  obs::HealthBlock block;
  block.name = "md";
  block.add("windows_opened", static_cast<double>(windows_opened_));
  block.add("windows_closed", static_cast<double>(windows_closed_));
  block.add("degraded_ticks", static_cast<double>(degraded_ticks_));
  return block;
}

Seconds MovementDetector::current_window_duration() const {
  if (!open_) return 0.0;
  // The window is still live: dW_t runs from its first anomalous tick to
  // the present.
  return rate_.to_seconds(now_ - open_->begin);
}

}  // namespace fadewich::core
