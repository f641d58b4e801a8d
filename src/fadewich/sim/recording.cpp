#include "fadewich/sim/recording.hpp"

#include <algorithm>
#include <cmath>

#include "fadewich/common/error.hpp"

namespace fadewich::sim {

Recording::Recording(double tick_hz, std::size_t sensor_count,
                     Seconds day_length, std::size_t days)
    : rate_(tick_hz),
      sensor_count_(sensor_count),
      day_length_(day_length),
      days_(days),
      streams_(sensor_count * (sensor_count - 1)) {
  FADEWICH_EXPECTS(sensor_count >= 2);
  FADEWICH_EXPECTS(day_length > 0.0);
  FADEWICH_EXPECTS(days >= 1);
  const auto expected = static_cast<std::size_t>(
      day_length * static_cast<double>(days) * tick_hz);
  for (auto& s : streams_) s.reserve(expected + 16);
}

std::int8_t Recording::encode_dbm(double rssi_dbm) {
  const double clamped = std::clamp(rssi_dbm, -128.0, 0.0);
  return static_cast<std::int8_t>(std::lround(clamped));
}

void Recording::append_samples(std::span<const double> rssi_dbm) {
  FADEWICH_EXPECTS(rssi_dbm.size() == streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    streams_[s].push_back(encode_dbm(rssi_dbm[s]));
  }
}

void Recording::append_block(std::span<const std::int8_t> block,
                             std::size_t ticks) {
  FADEWICH_EXPECTS(block.size() == ticks * streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    auto& stream = streams_[s];
    stream.reserve(stream.size() + ticks);
    for (std::size_t t = 0; t < ticks; ++t) {
      stream.push_back(block[t * streams_.size() + s]);
    }
  }
}

double Recording::rssi(std::size_t stream, Tick t) const {
  FADEWICH_EXPECTS(stream < streams_.size());
  FADEWICH_EXPECTS(t >= 0 &&
                   static_cast<std::size_t>(t) < streams_[stream].size());
  return static_cast<double>(streams_[stream][static_cast<std::size_t>(t)]);
}

void Recording::copy_rows(std::span<const std::size_t> streams, Tick begin,
                          Tick end, std::span<double> out) const {
  FADEWICH_EXPECTS(begin >= 0 && begin <= end && end < tick_count());
  const std::size_t n = streams.size();
  FADEWICH_EXPECTS(out.size() ==
                   static_cast<std::size_t>(end - begin + 1) * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::int8_t>& samples = stream(streams[i]);
    for (Tick t = begin; t <= end; ++t) {
      out[static_cast<std::size_t>(t - begin) * n + i] =
          static_cast<double>(samples[static_cast<std::size_t>(t)]);
    }
  }
}

const std::vector<std::int8_t>& Recording::stream(std::size_t s) const {
  FADEWICH_EXPECTS(s < streams_.size());
  return streams_[s];
}

std::size_t Recording::stream_index(std::size_t tx, std::size_t rx) const {
  FADEWICH_EXPECTS(tx < sensor_count_);
  FADEWICH_EXPECTS(rx < sensor_count_);
  FADEWICH_EXPECTS(tx != rx);
  return tx * (sensor_count_ - 1) + (rx < tx ? rx : rx - 1);
}

std::vector<std::size_t> Recording::streams_for_sensors(
    const std::vector<std::size_t>& sensors) const {
  FADEWICH_EXPECTS(sensors.size() >= 2);
  std::vector<std::size_t> out;
  out.reserve(sensors.size() * (sensors.size() - 1));
  for (std::size_t tx : sensors) {
    for (std::size_t rx : sensors) {
      if (tx == rx) continue;
      out.push_back(stream_index(tx, rx));
    }
  }
  return out;
}

bool Recording::seated_at(std::size_t workstation, Seconds t) const {
  FADEWICH_EXPECTS(workstation < seated_.size());
  for (const Interval& iv : seated_[workstation]) {
    if (iv.contains(t)) return true;
  }
  return false;
}

}  // namespace fadewich::sim
