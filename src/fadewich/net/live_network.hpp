// Live sensor network: every tick is one TDMA beacon round — each device
// broadcasts once and all others report the measured RSSI to the central
// station, which ingests the round's reports as one batch.  The channel
// truth comes from rf::ChannelMatrix; body states are supplied by the
// caller each tick (typically from sim::Person agents).
//
// The reporting path may be degraded: an optional FaultInjector drops,
// delays, and duplicates reports (and takes whole sensors offline), and
// the station releases rows on the configured deadline with stale cells
// imputed.  A round therefore yields zero or more rows (in tick order);
// with faults disabled every round yields exactly one complete row whose
// values are bit-identical to the fault-free path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/net/central_station.hpp"
#include "fadewich/net/fault_injector.hpp"
#include "fadewich/rf/channel.hpp"

namespace fadewich::net {

class LiveSensorNetwork {
 public:
  LiveSensorNetwork(std::vector<rf::Point> sensors,
                    rf::ChannelConfig channel_config, double tick_hz,
                    std::uint64_t seed);

  /// As above, with a degraded reporting path: `faults` drives the
  /// injector (seeded from `seed` so runs stay reproducible) and
  /// `station` sets the release deadline and pending cap.
  LiveSensorNetwork(std::vector<rf::Point> sensors,
                    rf::ChannelConfig channel_config, double tick_hz,
                    std::uint64_t seed, const FaultConfig& faults,
                    StationConfig station);

  std::size_t stream_count() const { return station_.stream_count(); }
  double tick_hz() const { return tick_hz_; }
  Tick current_tick() const { return tick_; }

  /// Run one beacon round with the given bodies present; returns the
  /// rows released this round, in tick order.  Fault-free networks
  /// return exactly one complete row per round.
  std::vector<StationRow> round(std::span<const rf::BodyState> bodies);

  const rf::ChannelMatrix& channel() const { return channel_; }
  const CentralStation& station() const { return station_; }
  /// Mutable access for interval-style health consumers (reset_health()).
  CentralStation& station() { return station_; }
  const FaultInjector* injector() const {
    return injector_ ? &*injector_ : nullptr;
  }

 private:
  rf::ChannelMatrix channel_;
  std::vector<Measurement> batch_;  // the round's reports, reused
  CentralStation station_;
  std::optional<FaultInjector> injector_;
  double tick_hz_;
  Tick tick_ = 0;
};

}  // namespace fadewich::net
