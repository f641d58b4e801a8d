// Wire-level types of the sensor network.
//
// Each device periodically broadcasts a beacon; every other device
// measures the beacon's RSSI and reports the measurement to the central
// station over a secure channel (system model item 2).  In process, the
// "secure channel" is a batch of these structs handed to the station's
// ingest; on the wire they travel as net/wire.hpp frames.
#pragma once

#include <cstdint>

#include "fadewich/common/time.hpp"

namespace fadewich::net {

using DeviceId = std::uint16_t;

/// One RSSI measurement: receiver `rx` heard transmitter `tx`.
struct Measurement {
  DeviceId tx = 0;
  DeviceId rx = 0;
  Tick tick = 0;
  double rssi_dbm = 0.0;
};

}  // namespace fadewich::net
