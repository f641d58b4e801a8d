// A recorded experiment: every directed RSSI stream sampled at a fixed
// rate over one or more working days, plus the ground truth the paper's
// human supervisor provided — movement events and per-workstation seated
// intervals (from which keyboard/mouse input is drawn).
//
// RSSI values are stored as int8 dBm (range [-128, 0] covers every real
// radio's reporting range), so a full 5-day 9-sensor recording stays in
// the hundreds of megabytes.  Days are concatenated on a single global
// timeline: day d spans [d * day_length, (d+1) * day_length).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/sim/events.hpp"

namespace fadewich::sim {

class Recording {
 public:
  Recording(double tick_hz, std::size_t sensor_count, Seconds day_length,
            std::size_t days);

  const TickRate& rate() const { return rate_; }
  std::size_t sensor_count() const { return sensor_count_; }
  /// Directed streams recorded: m * (m - 1).
  std::size_t stream_count() const { return streams_.size(); }
  std::size_t day_count() const { return days_; }
  Seconds day_length() const { return day_length_; }
  Seconds total_duration() const {
    return day_length_ * static_cast<double>(days_);
  }
  Tick tick_count() const {
    return streams_.empty() ? 0
                            : static_cast<Tick>(streams_[0].size());
  }

  /// Append one tick worth of samples (stream_count values, dBm).
  void append_samples(std::span<const double> rssi_dbm);

  /// Append a row-major [tick][stream] block of already-quantised int8
  /// samples (`ticks * stream_count()` values).  Used by the simulator to
  /// merge independently computed day blocks in tick order.
  void append_block(std::span<const std::int8_t> block, std::size_t ticks);

  /// The int8 dBm encoding append_samples applies, exposed so block
  /// producers quantise identically.
  static std::int8_t encode_dbm(double rssi_dbm);

  /// RSSI of a stream at a tick, in dBm.
  double rssi(std::size_t stream, Tick t) const;

  /// The streams `streams` (indices into this recording) over ticks
  /// [begin, end] inclusive, in dBm, as one row-major [rows x streams]
  /// block: out[(t - begin) * streams.size() + i] is stream streams[i] at
  /// tick t (the core::WindowBlock layout).  Requires the ticks to be
  /// recorded and out.size() == rows * streams.size().
  void copy_rows(std::span<const std::size_t> streams, Tick begin, Tick end,
                 std::span<double> out) const;

  /// Raw stream storage (int8 dBm), for bulk consumers.
  const std::vector<std::int8_t>& stream(std::size_t s) const;

  /// Index of the directed stream tx -> rx in this recording's order.
  std::size_t stream_index(std::size_t tx, std::size_t rx) const;

  /// Streams covering all ordered pairs within a sensor subset (indices
  /// into the recorded deployment).  Order matches a hypothetical
  /// recording made with only those sensors.
  std::vector<std::size_t> streams_for_sensors(
      const std::vector<std::size_t>& sensors) const;

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Seated intervals per workstation (global timeline); input activity
  /// is drawn from these.
  std::vector<std::vector<Interval>>& seated_intervals() {
    return seated_;
  }
  const std::vector<std::vector<Interval>>& seated_intervals() const {
    return seated_;
  }

  /// True if the workstation's user is seated at global time t.
  bool seated_at(std::size_t workstation, Seconds t) const;

 private:
  TickRate rate_;
  std::size_t sensor_count_;
  Seconds day_length_;
  std::size_t days_;
  std::vector<std::vector<std::int8_t>> streams_;
  EventLog events_;
  std::vector<std::vector<Interval>> seated_;
};

}  // namespace fadewich::sim
