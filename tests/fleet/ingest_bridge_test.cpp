// Wire -> fleet bridge: an office shard stepped over wire-decoded RSSI
// must produce a bit-identical digest to the same shard driven by the
// values the capture encoded — at any lane count, and with corrupt or
// missing frames covered deterministically by gap fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/ingest_bridge.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/net/wire.hpp"

namespace fadewich::fleet {
namespace {

constexpr std::size_t kDevices = 3;   // 6 streams per office
constexpr std::size_t kStreams = kDevices * (kDevices - 1);

std::int8_t synth_rssi(std::uint64_t seed, std::uint16_t station,
                       Tick tick, net::DeviceId tx, net::DeviceId rx) {
  std::uint64_t z = seed ^ (std::uint64_t{station} << 48) ^
                    (static_cast<std::uint64_t>(tick) << 20) ^
                    (std::uint64_t{tx} << 10) ^ rx;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::int8_t>(-30 - static_cast<int>(z % 70));
}

/// One office's capture: per tick every transmitter emits one frame, so
/// the station completes a full row per tick.  `skip_tick`, when >= 0,
/// drops that tick's frames entirely (a lost beacon round).
std::vector<std::uint8_t> make_capture(std::size_t stations, Tick ticks,
                                       std::uint64_t seed,
                                       Tick skip_tick = -1) {
  std::vector<std::uint8_t> bytes;
  std::vector<net::WireReport> reports;
  std::vector<std::uint64_t> seq(stations, 0);
  for (Tick tick = 0; tick < ticks; ++tick) {
    if (tick == skip_tick) continue;
    for (std::uint16_t station = 0; station < stations; ++station) {
      for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
        reports.clear();
        for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
          if (rx == tx) continue;
          reports.push_back({rx, synth_rssi(seed, station, tick, tx, rx)});
        }
        const net::FrameHeader header{station, seq[station]++, tick, tx};
        encode_frame(header, reports, bytes);
      }
    }
  }
  return bytes;
}

ShardConfig bridge_shard_config() {
  ShardConfig config;
  config.streams = kStreams;
  config.workstations = 2;
  config.system = default_shard_system();
  return config;
}

/// The reference driver: the exact quantised values the capture encodes,
/// written directly into the block — what a bit-perfect wire round trip
/// must reproduce.
OfficeShard::RowSource direct_source(std::uint16_t station,
                                     std::uint64_t seed) {
  return [station, seed](Tick from, std::size_t count,
                         common::FlatMatrix& block) {
    for (std::size_t i = 0; i < count; ++i) {
      double* row = block.row(i);
      const Tick tick = from + static_cast<Tick>(i);
      for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
        for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
          if (rx == tx) continue;
          const std::size_t s =
              static_cast<std::size_t>(tx) * (kDevices - 1) +
              (rx < tx ? rx : rx - 1);
          row[s] = static_cast<double>(
              synth_rssi(seed, station, tick, tx, rx));
        }
      }
    }
  };
}

/// Digest of one office shard stepped over the capture through the full
/// plane -> bridge -> shard path.
std::uint32_t bridged_digest(std::span<const std::uint8_t> bytes,
                             std::size_t offices, std::size_t office,
                             std::size_t lanes, Tick boundary,
                             std::uint64_t* gap_rows = nullptr) {
  net::PlaneConfig plane_config;
  plane_config.lanes = lanes;
  plane_config.shards = offices;
  plane_config.serial = true;
  net::IngestPlane plane(plane_config);

  BridgeConfig bridge_config;
  bridge_config.offices = offices;
  bridge_config.devices = kDevices;
  IngestBridge bridge(bridge_config);
  plane.replay(bytes, bridge.sink());
  bridge.finish();

  OfficeShard shard(office, exec::task_seed(0xf1ee7, office),
                    bridge_shard_config());
  bridge.attach(shard, office);
  EXPECT_GE(bridge.rows_ready_through(office), boundary);
  shard.run_until(boundary);
  EXPECT_FALSE(shard.faulted()) << shard.fault_what();
  if (gap_rows != nullptr) *gap_rows = bridge.gap_rows(office);
  return shard.digest();
}

TEST(IngestBridgeTest, WireRoundTripMatchesDirectRowSource) {
  const Tick kTicks = 300;
  const auto bytes = make_capture(2, kTicks, 0xcab1e);

  // Reference: the same shard fed the capture's values directly.
  std::uint32_t want[2];
  for (std::size_t office = 0; office < 2; ++office) {
    OfficeShard shard(office, exec::task_seed(0xf1ee7, office),
                      bridge_shard_config());
    shard.set_row_source(
        direct_source(static_cast<std::uint16_t>(office), 0xcab1e));
    shard.run_until(kTicks);
    ASSERT_FALSE(shard.faulted()) << shard.fault_what();
    want[office] = shard.digest();
  }

  for (std::size_t office = 0; office < 2; ++office) {
    EXPECT_EQ(bridged_digest(bytes, 2, office, 1, kTicks), want[office])
        << "office " << office;
  }
}

TEST(IngestBridgeTest, BridgedDigestInvariantAcrossLaneCounts) {
  const Tick kTicks = 200;
  auto bytes = make_capture(2, kTicks, 0x5eed);
  // Corrupt one mid-capture frame: the row it fed gap-fills, and the
  // fill must not depend on how lanes split the buffer.
  const std::size_t frame_size = net::wire_frame_size(kStreams / kDevices);
  const std::size_t frames = bytes.size() / frame_size;
  bytes[(frames / 2) * frame_size + net::kWireHeaderSize] ^= 0x5a;

  std::uint64_t gap1 = 0;
  const std::uint32_t want = bridged_digest(bytes, 2, 0, 1, kTicks, &gap1);
  for (const std::size_t lanes : {2, 3, 5}) {
    std::uint64_t gap = 0;
    EXPECT_EQ(bridged_digest(bytes, 2, 0, lanes, kTicks, &gap), want)
        << "lanes " << lanes;
    EXPECT_EQ(gap, gap1) << "lanes " << lanes;
  }
}

TEST(IngestBridgeTest, GapFillRepeatsPreviousRowAndCounts) {
  const Tick kTicks = 12;
  const Tick kSkip = 5;
  const auto bytes = make_capture(1, kTicks, 0x9a9, kSkip);

  BridgeConfig config;
  config.devices = kDevices;
  IngestBridge bridge(config);
  net::PlaneConfig plane_config;
  plane_config.serial = true;
  net::IngestPlane plane(plane_config);
  plane.replay(bytes, bridge.sink());
  bridge.finish();

  EXPECT_EQ(bridge.rows_ready_through(0), kTicks);
  EXPECT_EQ(bridge.gap_rows(0), 1u);

  // Content check by digest: a direct source that repeats the previous
  // tick's row at the skipped tick must match the bridged shard exactly.
  OfficeShard want(0, 1, bridge_shard_config());
  const OfficeShard::RowSource base = direct_source(0, 0x9a9);
  want.set_row_source([&base, kSkip](Tick from, std::size_t count,
                                     common::FlatMatrix& block) {
    for (std::size_t i = 0; i < count; ++i) {
      const Tick tick = from + static_cast<Tick>(i);
      common::FlatMatrix one;
      one.resize(1, kStreams);
      base(tick == kSkip ? tick - 1 : tick, 1, one);
      std::copy_n(one.row(0), kStreams, block.row(i));
    }
  });
  want.run_until(kTicks);
  ASSERT_FALSE(want.faulted()) << want.fault_what();

  OfficeShard got(0, 1, bridge_shard_config());
  bridge.attach(got, 0);
  got.run_until(kTicks);
  ASSERT_FALSE(got.faulted()) << got.fault_what();
  EXPECT_EQ(got.digest(), want.digest());
}

TEST(IngestBridgeTest, SteppingPastBufferedRowsFaultsTheShard) {
  const Tick kTicks = 50;
  const auto bytes = make_capture(1, kTicks, 0x77);
  BridgeConfig config;
  config.devices = kDevices;
  IngestBridge bridge(config);
  net::PlaneConfig plane_config;
  plane_config.serial = true;
  net::IngestPlane plane(plane_config);
  plane.replay(bytes, bridge.sink());
  bridge.finish();

  OfficeShard shard(0, 3, bridge_shard_config());
  bridge.attach(shard, 0);
  shard.run_until(kTicks + 10);  // past rows_ready_through
  EXPECT_TRUE(shard.faulted());
  EXPECT_NE(shard.fault_what().find("rows_ready_through"),
            std::string::npos)
      << shard.fault_what();
}

TEST(IngestBridgeTest, TrimBeforeDropsOnlyOlderRows) {
  const Tick kTicks = 40;
  const auto bytes = make_capture(1, kTicks, 0x44);
  BridgeConfig config;
  config.devices = kDevices;
  IngestBridge bridge(config);
  net::PlaneConfig plane_config;
  plane_config.serial = true;
  net::IngestPlane plane(plane_config);
  plane.replay(bytes, bridge.sink());
  bridge.finish();

  OfficeShard shard(0, 9, bridge_shard_config());
  bridge.attach(shard, 0);
  shard.run_until(20);
  ASSERT_FALSE(shard.faulted()) << shard.fault_what();
  bridge.trim_before(0, 20);

  // Later rows still read fine...
  shard.run_until(kTicks);
  EXPECT_FALSE(shard.faulted()) << shard.fault_what();

  // ...but a fresh shard needing trimmed ticks faults at its first read.
  OfficeShard cold(0, 9, bridge_shard_config());
  bridge.attach(cold, 0);
  cold.run_until(10);
  EXPECT_TRUE(cold.faulted());
}

TEST(IngestBridgeTest, AttachValidatesStreamCount) {
  BridgeConfig config;
  config.devices = kDevices;
  IngestBridge bridge(config);
  ShardConfig wrong = bridge_shard_config();
  wrong.streams = 4;
  OfficeShard shard(0, 1, wrong);
  EXPECT_THROW(bridge.attach(shard, 0), Error);
}

TEST(IngestBridgeTest, RejectsInvalidConfigs) {
  BridgeConfig zero_offices;
  zero_offices.offices = 0;
  EXPECT_THROW(IngestBridge{zero_offices}, Error);

  BridgeConfig one_device;
  one_device.devices = 1;
  EXPECT_THROW(IngestBridge{one_device}, Error);

  // Any station deadline is accepted: a row missing a report holds
  // itself and every newer row until the stream is deadline_ticks past
  // it, then leaves imputed.
  BridgeConfig deadline;
  deadline.devices = kDevices;
  deadline.station.deadline_ticks = 4;
  IngestBridge bridge(deadline);
  const Tick kLossy = 2;
  std::vector<net::Measurement> batch;
  for (Tick tick = 0; tick < 8; ++tick) {
    batch.clear();
    for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
      for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
        if (rx == tx || (tick == kLossy && tx == 0 && rx == 1)) continue;
        batch.push_back({tx, rx, tick, -50.0});
      }
    }
    bridge.ingest(0, batch);
    const bool held = tick >= kLossy && tick < kLossy + 4;
    EXPECT_EQ(bridge.rows_ready_through(0), held ? kLossy : tick + 1)
        << "tick " << tick;
  }
  EXPECT_EQ(bridge.health(0).incomplete_releases, 1u);
  EXPECT_EQ(bridge.health(0).imputed_cells, 1u);
  EXPECT_EQ(bridge.gap_rows(0), 0u);
}

}  // namespace
}  // namespace fadewich::fleet
