#include "fadewich/net/live_network.hpp"

#include "fadewich/common/error.hpp"

namespace fadewich::net {

LiveSensorNetwork::LiveSensorNetwork(std::vector<rf::Point> sensors,
                                     rf::ChannelConfig channel_config,
                                     double tick_hz, std::uint64_t seed)
    : channel_(std::move(sensors), channel_config, seed),
      station_(channel_.sensor_count()),
      tick_hz_(tick_hz) {
  FADEWICH_EXPECTS(tick_hz > 0.0);
}

LiveSensorNetwork::LiveSensorNetwork(std::vector<rf::Point> sensors,
                                     rf::ChannelConfig channel_config,
                                     double tick_hz, std::uint64_t seed,
                                     const FaultConfig& faults,
                                     StationConfig station)
    : channel_(std::move(sensors), channel_config, seed),
      station_(channel_.sensor_count(), station),
      tick_hz_(tick_hz) {
  FADEWICH_EXPECTS(tick_hz > 0.0);
  if (faults.enabled()) {
    // A distinct seed stream from the channel's: the injector's draws
    // must not disturb the physical truth.
    injector_.emplace(channel_.sensor_count(), faults, seed ^ 0x5DEECE66Dull);
  }
}

std::vector<StationRow> LiveSensorNetwork::round(
    std::span<const rf::BodyState> bodies) {
  // Physical truth for the round: one RSSI per directed stream.
  std::vector<double> truth(channel_.stream_count());
  channel_.sample(bodies, truth);

  // Each receiver reports each measurement to the station, through the
  // (possibly faulty) reporting path.
  const auto m = static_cast<DeviceId>(channel_.sensor_count());
  for (DeviceId tx = 0; tx < m; ++tx) {
    for (DeviceId rx = 0; rx < m; ++rx) {
      if (tx == rx) continue;
      const Measurement report{tx, rx, tick_,
                               truth[channel_.stream_index(tx, rx)]};
      if (injector_) {
        injector_->offer(report, batch_);
      } else {
        batch_.push_back(report);
      }
    }
  }
  if (injector_) injector_->advance(tick_, batch_);

  std::vector<StationRow> rows;
  station_.ingest(
      batch_, [&rows](const StationRow& row) { rows.push_back(row); },
      tick_);
  batch_.clear();
  if (!injector_) {
    // Reliable channel: the paper's assumption holds and every round
    // must assemble exactly its own tick.
    FADEWICH_ENSURES(rows.size() == 1 && rows[0].tick == tick_);
  }
  ++tick_;
  return rows;
}

}  // namespace fadewich::net
