// Sharded ingest plane: the per-shard stream must be bit-identical at
// any lane count — including over adversarial captures whose corruption
// lands on or around lane boundaries — and the station's RowSink form,
// which the plane's consumers use, must agree with its take_row form.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/net/adversary.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/net/wire.hpp"

namespace fadewich::net {
namespace {

constexpr std::size_t kDevices = 3;  // 6 streams per office

std::int8_t synth_rssi(std::uint64_t seed, std::uint16_t station,
                       Tick tick, DeviceId tx, DeviceId rx) {
  std::uint64_t z = seed ^ (std::uint64_t{station} << 48) ^
                    (static_cast<std::uint64_t>(tick) << 20) ^
                    (std::uint64_t{tx} << 10) ^ rx;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::int8_t>(-30 - static_cast<int>(z % 70));
}

/// A multi-station capture: per tick, every station's every transmitter
/// emits one frame, so each station's stream completes a full row per
/// tick.  Frames are tick-major then station-major — the wire order the
/// plane must reproduce per shard.
std::vector<std::uint8_t> make_capture(std::size_t stations, Tick ticks,
                                       std::uint64_t seed,
                                       bool authed = false) {
  std::vector<std::uint8_t> bytes;
  std::vector<WireReport> reports;
  std::vector<std::uint64_t> seq(stations, 0);
  for (Tick tick = 0; tick < ticks; ++tick) {
    for (std::uint16_t station = 0; station < stations; ++station) {
      for (DeviceId tx = 0; tx < kDevices; ++tx) {
        reports.clear();
        for (DeviceId rx = 0; rx < kDevices; ++rx) {
          if (rx == tx) continue;
          reports.push_back({rx, synth_rssi(seed, station, tick, tx, rx)});
        }
        const FrameHeader header{station, seq[station]++, tick, tx};
        if (authed) {
          const WireKey key = derive_station_key(seed, station);
          encode_frame(header, reports, bytes, &key);
        } else {
          encode_frame(header, reports, bytes);
        }
      }
    }
  }
  return bytes;
}

bool same_measurement(const Measurement& a, const Measurement& b) {
  return a.tx == b.tx && a.rx == b.rx && a.tick == b.tick &&
         a.rssi_dbm == b.rssi_dbm;
}

/// Reference: the single FrameDecoder walk, routed per shard.
std::vector<std::vector<Measurement>> reference_streams(
    std::span<const std::uint8_t> bytes, std::size_t shards) {
  std::vector<std::vector<Measurement>> out(shards);
  FrameDecoder decoder;
  decoder.feed(bytes);
  while (const DecodedFrame* frame = decoder.next()) {
    to_measurements(*frame, out[frame->header.station_id % shards]);
  }
  decoder.finish();
  return out;
}

std::vector<std::vector<Measurement>> plane_streams(
    IngestPlane& plane, std::span<const std::uint8_t> bytes,
    std::size_t shards) {
  std::vector<std::vector<Measurement>> out(shards);
  plane.replay(bytes, [&](std::size_t shard,
                          std::span<const Measurement> batch) {
    out[shard].insert(out[shard].end(), batch.begin(), batch.end());
  });
  return out;
}

void expect_same_streams(
    const std::vector<std::vector<Measurement>>& got,
    const std::vector<std::vector<Measurement>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].size(), want[s].size()) << "shard " << s;
    for (std::size_t i = 0; i < got[s].size(); ++i) {
      ASSERT_TRUE(same_measurement(got[s][i], want[s][i]))
          << "shard " << s << " index " << i;
    }
  }
}

TEST(IngestPlaneTest, SingleLaneMatchesFrameDecoderWalk) {
  const auto bytes = make_capture(4, 40, 0x1234);
  const auto want = reference_streams(bytes, 2);
  PlaneConfig config;
  config.lanes = 1;
  config.shards = 2;
  config.serial = true;
  IngestPlane plane(config);
  const auto got = plane_streams(plane, bytes, 2);
  expect_same_streams(got, want);
  EXPECT_EQ(plane.counters().wire.frames_ok, 4u * 40u * kDevices);
  EXPECT_EQ(plane.counters().reports_delivered,
            4u * 40u * kDevices * (kDevices - 1));
}

TEST(IngestPlaneTest, ShardStreamsIdenticalAtEveryLaneCount) {
  const auto bytes = make_capture(5, 60, 0xbeef);
  const auto want = reference_streams(bytes, 3);
  for (const std::size_t lanes : {2u, 3u, 4u, 7u}) {
    PlaneConfig config;
    config.lanes = lanes;
    config.shards = 3;
    IngestPlane plane(config);
    const auto got = plane_streams(plane, bytes, 3);
    expect_same_streams(got, want);
    EXPECT_EQ(plane.counters().wire.frames_ok, 5u * 60u * kDevices)
        << lanes << " lanes";
  }
}

TEST(IngestPlaneTest, AuthTaggedFramesRouteIdentically) {
  const auto bytes = make_capture(4, 30, 0x77, /*authed=*/true);
  const auto want = reference_streams(bytes, 2);
  for (const std::size_t lanes : {1u, 3u}) {
    PlaneConfig config;
    config.lanes = lanes;
    config.shards = 2;
    IngestPlane plane(config);
    expect_same_streams(plane_streams(plane, bytes, 2), want);
  }
}

/// Satellite corpus: truncated tail, corrupt CRC mid-buffer, auth-tagged
/// frames, and AttackInjector forgeries, all replayed at lane counts
/// that slice the corruption differently.  The gate is exactly-once
/// delivery: every lane count yields the reference stream, no report
/// lost or doubled across a lane boundary.
TEST(IngestPlaneTest, AdversarialCorpusSurvivesLaneBoundarySplits) {
  std::vector<std::uint8_t> bytes = make_capture(4, 25, 0x5151);
  // Corrupt one report byte mid-buffer (CRC now fails; header intact).
  const std::size_t frame_size =
      wire_frame_size(kDevices - 1, /*authenticated=*/false);
  const std::size_t mid_frame =
      (bytes.size() / 2 / frame_size) * frame_size;
  bytes[mid_frame + kWireHeaderSize + 1] ^= 0x40;
  // Splice in forged frames from the attack corpus.
  AttackConfig attack;
  attack.forged_per_tick = 2;
  AttackInjector injector(kDevices, attack, /*seed=*/99);
  std::vector<std::uint8_t> forged;
  for (Tick t = 0; t < 10; ++t) injector.advance(t, forged);
  bytes.insert(bytes.end(), forged.begin(), forged.end());
  // A run of authenticated frames after the forgeries.
  const auto authed = make_capture(4, 5, 0x5152, /*authed=*/true);
  bytes.insert(bytes.end(), authed.begin(), authed.end());
  // Truncated tail frame: a valid frame cut mid-report-batch.
  std::vector<std::uint8_t> tail = make_capture(1, 1, 0x5153);
  tail.resize(tail.size() / 2);
  bytes.insert(bytes.end(), tail.begin(), tail.end());

  const auto want = reference_streams(bytes, 3);
  WireCounters reference;
  {
    FrameDecoder decoder;
    decoder.feed(bytes);
    while (decoder.next() != nullptr) {
    }
    decoder.finish();
    reference = decoder.counters();
  }
  for (const std::size_t lanes : {1u, 2u, 3u, 5u, 8u}) {
    PlaneConfig config;
    config.lanes = lanes;
    config.shards = 3;
    IngestPlane plane(config);
    const auto got = plane_streams(plane, bytes, 3);
    expect_same_streams(got, want);
    // Delivered frames/reports match the single walk exactly; rejection
    // *attribution* may shift at a seam (truncated vs bad_crc+resync),
    // so only the delivery counters are gated byte-for-byte.
    EXPECT_EQ(plane.counters().wire.frames_ok, reference.frames_ok)
        << lanes << " lanes";
    EXPECT_EQ(plane.counters().wire.reports, reference.reports)
        << lanes << " lanes";
    EXPECT_GT(plane.counters().wire.bad_crc +
                  plane.counters().wire.truncated,
              0u);
  }
}

TEST(IngestPlaneTest, TinyRingsBackpressureStillDeliversExactly) {
  const auto bytes = make_capture(3, 50, 0xabc);
  const auto want = reference_streams(bytes, 3);
  PlaneConfig config;
  config.lanes = 2;
  config.shards = 3;
  config.ring_capacity = 8;  // far below one tick's reports
  config.drain_batch = 4;
  IngestPlane plane(config);
  const auto got = plane_streams(plane, bytes, 3);
  expect_same_streams(got, want);
  EXPECT_GT(plane.counters().ring_full_backpressure, 0u);
}

TEST(IngestPlaneTest, CrcRejectionAttributedToRoutedShard) {
  auto bytes = make_capture(2, 4, 0x9f);
  // Find the first frame of station 1 and flip a report byte: the
  // header stays intact, so the rejection lands on shard 1 of 2.
  const std::size_t frame_size =
      wire_frame_size(kDevices - 1, /*authenticated=*/false);
  const std::size_t station1 = kDevices * frame_size;  // station 0 first
  bytes[station1 + kWireHeaderSize + 2] ^= 0x01;
  PlaneConfig config;
  config.lanes = 2;
  config.shards = 2;
  IngestPlane plane(config);
  plane_streams(plane, bytes, 2);
  EXPECT_EQ(plane.counters().per_shard[1].crc_rejected, 1u);
  EXPECT_EQ(plane.counters().per_shard[0].crc_rejected, 0u);
  EXPECT_GT(plane.counters().per_shard[0].frames_decoded, 0u);
  EXPECT_GT(plane.counters().per_shard[1].reports_delivered, 0u);
}

/// The "ingest_plane" health block is the only export of the per-shard
/// counters: its shard_<s>_* entries must carry PlaneCounters::per_shard.
TEST(IngestPlaneTest, HealthBlockCarriesPerShardCounters) {
  auto bytes = make_capture(3, 8, 0x3c);
  bytes[kWireHeaderSize + 2] ^= 0x01;  // one CRC rejection on shard 0
  PlaneConfig config;
  config.lanes = 2;
  config.shards = 3;
  config.ring_capacity = 4;  // tiny rings: backpressure is nonzero
  IngestPlane plane(config);
  plane_streams(plane, bytes, 3);
  const PlaneCounters& counters = plane.counters();
  ASSERT_GT(counters.ring_full_backpressure, 0u);

  const obs::HealthBlock block = health_block(counters);
  EXPECT_EQ(block.name, "ingest_plane");
  const std::map<std::string, double> fields(block.fields.begin(),
                                             block.fields.end());
  for (std::size_t s = 0; s < config.shards; ++s) {
    const PlaneShardCounters& c = counters.per_shard[s];
    const std::string shard = "shard_" + std::to_string(s);
    EXPECT_EQ(fields.at(shard + "_frames_decoded"),
              static_cast<double>(c.frames_decoded));
    EXPECT_EQ(fields.at(shard + "_crc_rejected"),
              static_cast<double>(c.crc_rejected));
    EXPECT_EQ(fields.at(shard + "_ring_full_backpressure"),
              static_cast<double>(c.ring_full_backpressure));
    EXPECT_EQ(fields.at(shard + "_reports_delivered"),
              static_cast<double>(c.reports_delivered));
  }
  EXPECT_EQ(fields.at("shard_0_crc_rejected"), 1.0);
  EXPECT_EQ(fields.count("shard_3_frames_decoded"), 0u);
}

TEST(IngestPlaneTest, HealthBlockKeepsTotalsOnlyPastTheUnitCap) {
  const auto per_shard_entries = [](std::size_t shards) {
    PlaneCounters counters;
    counters.per_shard.resize(shards);
    std::size_t n = 0;
    for (const auto& [field, value] : health_block(counters).fields) {
      if (field.starts_with("shard_")) ++n;
    }
    return n;
  };
  EXPECT_EQ(per_shard_entries(obs::kPerUnitHealthCap),
            4 * obs::kPerUnitHealthCap);
  EXPECT_EQ(per_shard_entries(obs::kPerUnitHealthCap + 1), 0u);
}

TEST(IngestPlaneTest, MisroutingRouterThrows) {
  const auto bytes = make_capture(2, 2, 0x1);
  PlaneConfig config;
  config.shards = 2;
  IngestPlane plane(config);
  plane.set_router([](std::uint16_t) -> std::size_t { return 99; });
  EXPECT_THROW(
      plane.replay(bytes,
                   [](std::size_t, std::span<const Measurement>) {}),
      Error);
}

TEST(IngestPlaneTest, RejectsInvalidConfig) {
  EXPECT_THROW(IngestPlane(PlaneConfig{.lanes = 0}), Error);
  EXPECT_THROW(IngestPlane(PlaneConfig{.shards = 0}), Error);
  EXPECT_THROW(IngestPlane(PlaneConfig{.drain_batch = 0}), Error);
  IngestPlane plane(PlaneConfig{});
  EXPECT_THROW(plane.set_router(nullptr), Error);
}

TEST(IngestPlaneTest, ReplayIsReusableAndCountersAccumulate) {
  const auto bytes = make_capture(2, 10, 0x42);
  PlaneConfig config;
  config.lanes = 2;
  config.shards = 2;
  IngestPlane plane(config);
  const auto first = plane_streams(plane, bytes, 2);
  const auto second = plane_streams(plane, bytes, 2);
  expect_same_streams(second, first);
  EXPECT_EQ(plane.counters().wire.frames_ok, 2u * 2u * 10u * kDevices);
}

/// The ring-depth histogram belongs to its plane: a second plane built in
/// the same process stays empty while the first one drains.
TEST(IngestPlaneTest, RingDepthHistogramBelongsToItsPlane) {
  const auto bytes = make_capture(2, 10, 0x42);
  PlaneConfig config;
  config.lanes = 2;
  config.shards = 2;
  IngestPlane busy(config);
  IngestPlane idle(config);
  plane_streams(busy, bytes, 2);
  const auto drains = [](const IngestPlane& plane) {
    const obs::MetricsSnapshot snapshot = plane.metrics();
    const obs::HistogramSample* depth =
        snapshot.find_histogram("fadewich_ingest_ring_depth");
    EXPECT_NE(depth, nullptr);
    return depth != nullptr ? depth->count : 0u;
  };
  EXPECT_EQ(drains(idle), 0u);
  if (obs::enabled()) {
    EXPECT_GT(drains(busy), 0u);
  }
}

// --- CentralStation over tick-ordered streams ------------------------

std::vector<Measurement> tick_ordered_stream(std::size_t devices,
                                             Tick ticks,
                                             std::uint64_t seed) {
  std::vector<Measurement> out;
  for (Tick tick = 0; tick < ticks; ++tick) {
    for (DeviceId tx = 0; tx < devices; ++tx) {
      for (DeviceId rx = 0; rx < devices; ++rx) {
        if (rx == tx) continue;
        out.push_back({tx, rx, tick,
                       static_cast<double>(
                           synth_rssi(seed, 0, tick, tx, rx))});
      }
    }
  }
  return out;
}

struct CollectedRows {
  std::vector<StationRow> rows;
  CentralStation::RowSink sink() {
    return [this](const StationRow& row) { rows.push_back(row); };
  }
};

void expect_same_rows(const std::vector<StationRow>& got,
                      const std::vector<StationRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tick, want[i].tick) << i;
    EXPECT_EQ(got[i].values, want[i].values) << i;
    EXPECT_EQ(got[i].valid, want[i].valid) << i;
    EXPECT_EQ(got[i].missing, want[i].missing) << i;
  }
}

/// take_row-form reference: ingest in the same batch splits, draining
/// released rows in order after every batch.
std::vector<StationRow> generic_rows(
    CentralStation& station, std::span<const Measurement> stream,
    std::size_t batch_size) {
  std::vector<StationRow> rows;
  for (std::size_t at = 0; at < stream.size(); at += batch_size) {
    const std::size_t n = std::min(batch_size, stream.size() - at);
    for (const Tick tick : station.ingest(stream.subspan(at, n))) {
      if (auto row = station.take_row(tick)) rows.push_back(*row);
    }
  }
  return rows;
}

TEST(IngestOrderedTest, MatchesGenericPathOnCleanOrderedStream) {
  const auto stream = tick_ordered_stream(kDevices, 30, 0xfeed);
  CentralStation generic(kDevices);
  const auto want = generic_rows(generic, stream, 17);

  CentralStation fast(kDevices);
  CollectedRows got;
  std::size_t emitted = 0;
  // Different batch split from the generic run on purpose: emission
  // must not depend on batch boundaries.
  for (std::size_t at = 0; at < stream.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - at);
    emitted += fast.ingest({stream.data() + at, n}, got.sink());
  }
  EXPECT_EQ(emitted, got.rows.size());
  expect_same_rows(got.rows, want);
  EXPECT_EQ(fast.health().reports, generic.health().reports);
  EXPECT_EQ(fast.health().duplicates, generic.health().duplicates);
  EXPECT_EQ(fast.health().late_reports, generic.health().late_reports);
}

TEST(IngestOrderedTest, DuplicatesAndRevisionsMatchGenericTaxonomy) {
  auto stream = tick_ordered_stream(kDevices, 6, 0x1dea);
  // Exact repeat inside tick 2, and a revised repeat inside tick 3.
  const std::size_t per_tick = kDevices * (kDevices - 1);
  stream.insert(stream.begin() + 3 * per_tick, stream[2 * per_tick]);
  Measurement revised = stream[3 * per_tick + 5];
  revised.rssi_dbm -= 4.0;
  stream.insert(stream.begin() + 4 * per_tick, revised);

  CentralStation generic(kDevices);
  const auto want = generic_rows(generic, stream, stream.size());
  CentralStation fast(kDevices);
  CollectedRows got;
  fast.ingest(stream, got.sink());
  expect_same_rows(got.rows, want);
  EXPECT_EQ(fast.health().duplicates, generic.health().duplicates);
  EXPECT_EQ(fast.health().duplicates_rejected,
            generic.health().duplicates_rejected);
}

TEST(IngestOrderedTest, LateStragglerAfterEmissionCountsLate) {
  const auto stream = tick_ordered_stream(kDevices, 4, 0xace);
  CentralStation fast(kDevices);
  CollectedRows got;
  // Complete tick 3 leaves with the call that completed it; the retired
  // ordered path held it (3 rows) until a newer tick or the old
  // finish_ordered() call.
  fast.ingest(stream, got.sink());
  ASSERT_EQ(got.rows.size(), 4u);
  EXPECT_EQ(got.rows.back().tick, 3);
  // A straggler for emitted tick 0: late + rejected as an exact repeat,
  // and it emits nothing.
  const Measurement straggler = stream[0];
  EXPECT_EQ(fast.ingest({&straggler, 1}, got.sink()), 0u);
  EXPECT_EQ(fast.health().late_reports, 1u);
  EXPECT_EQ(fast.health().duplicates_rejected, 1u);
  EXPECT_EQ(got.rows.size(), 4u);
  EXPECT_EQ(fast.buffered_count(), 0u);
}

TEST(IngestOrderedTest, LostFrameReleasesIncompleteOnTickAdvance) {
  // Drop one report from tick 1: without a `now` the clock is the
  // newest tick, so the row is released when tick 2 arrives, imputing
  // the missing cell from tick 0, instead of stalling every later tick.
  auto stream = tick_ordered_stream(kDevices, 4, 0x105e);
  const std::size_t per_tick = kDevices * (kDevices - 1);
  const Measurement dropped = stream[per_tick + 2];
  const double expect_imputed = stream[2].rssi_dbm;  // same stream, tick 0
  stream.erase(stream.begin() + per_tick + 2);

  CentralStation fast(kDevices);
  CollectedRows got;
  fast.ingest(stream, got.sink());
  ASSERT_EQ(got.rows.size(), 4u);
  const StationRow& row = got.rows[1];
  EXPECT_EQ(row.tick, 1);
  EXPECT_EQ(row.missing, 1u);
  const std::size_t s = fast.stream_index(dropped.tx, dropped.rx);
  EXPECT_FALSE(row.valid[s]);
  EXPECT_EQ(row.values[s], expect_imputed);
  EXPECT_EQ(fast.health().incomplete_releases, 1u);
  EXPECT_EQ(fast.health().imputed_cells, 1u);
  // Ticks 2 and 3 were not held hostage behind the lost frame.
  EXPECT_EQ(got.rows[2].missing, 0u);
  EXPECT_EQ(got.rows.back().tick, 3);
}

TEST(IngestOrderedTest, MalformedReportsCountedNotApplied) {
  const auto clean = tick_ordered_stream(kDevices, 2, 0xd00d);
  std::vector<Measurement> stream(clean.begin(), clean.end());
  stream.push_back({9, 1, 1, -44.0});   // tx out of range
  stream.push_back({1, 1, 1, -44.0});   // tx == rx
  stream.push_back({0, 1, -5, -44.0});  // negative tick
  CentralStation fast(kDevices);
  CollectedRows got;
  fast.ingest(stream, got.sink());
  EXPECT_EQ(fast.health().malformed, 3u);
  EXPECT_EQ(got.rows.size(), 2u);
}

TEST(IngestOrderedTest, TickRegressionFallsBackToGenericSemantics) {
  const auto a = tick_ordered_stream(kDevices, 3, 0xb0b);
  std::vector<Measurement> stream(a.begin(), a.end());
  // Regression: a repeat report for an already-emitted older tick.
  stream.push_back({0, 1, 1, -60.0});
  stream.push_back({0, 2, 5, -61.0});  // then jump forward

  // There is no fallback left: one engine serves both forms.  The
  // reference split puts the regression in its own batch, after ticks
  // 0-2 are released; a single batch must agree, because without a
  // `now` each clock advance is a decision point, so tick 1 has left
  // before its repeat arrives.
  CentralStation generic(kDevices);
  const auto want = generic_rows(generic, stream, a.size());
  CentralStation fast(kDevices);
  CollectedRows got;
  fast.ingest(stream, got.sink());
  expect_same_rows(got.rows, want);
  EXPECT_EQ(fast.health().late_reports, generic.health().late_reports);
  // Tick 5 is incomplete and stays held for the next call.
  EXPECT_EQ(fast.buffered_count(), 1u);
}

TEST(IngestOrderedTest, RowSplitAcrossCallsEmitsOnce) {
  const auto stream = tick_ordered_stream(kDevices, 2, 0xcafe);
  const std::size_t half = stream.size() / 2 - 1;
  CentralStation fast(kDevices);
  CollectedRows got;
  fast.ingest({stream.data(), half}, got.sink());
  const std::size_t early = got.rows.size();
  fast.ingest({stream.data() + half, stream.size() - half}, got.sink());
  EXPECT_EQ(got.rows.size(), 2u);
  EXPECT_LE(early, 1u);
  std::map<Tick, int> seen;
  for (const StationRow& row : got.rows) ++seen[row.tick];
  for (const auto& [tick, n] : seen) EXPECT_EQ(n, 1) << tick;
}

TEST(IngestOrderedTest, InterleavesWithGenericIngestCoherently) {
  const auto stream = tick_ordered_stream(kDevices, 4, 0xfade);
  const std::size_t per_tick = kDevices * (kDevices - 1);
  CentralStation station(kDevices);
  CollectedRows got;
  // The RowSink form leaves tick 1's row half-assembled...
  station.ingest({stream.data(), per_tick + 3}, got.sink());
  // ...then the take_row form picks it up mid-row and completes it.
  const auto ready = station.ingest(
      {stream.data() + per_tick + 3, stream.size() - per_tick - 3});
  EXPECT_EQ(got.rows.size(), 1u);
  ASSERT_EQ(ready.size(), 3u);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const auto row = station.take_row(ready[i]);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->missing, 0u);
  }
}

}  // namespace
}  // namespace fadewich::net
