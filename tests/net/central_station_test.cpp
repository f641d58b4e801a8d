#include "fadewich/net/central_station.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::net {
namespace {

/// Append every directed measurement for one tick with value
/// base - stream_index.
void publish_full_round(std::vector<Measurement>& batch,
                        std::size_t devices, Tick tick, double base) {
  CentralStation index(devices);
  for (DeviceId tx = 0; tx < devices; ++tx) {
    for (DeviceId rx = 0; rx < devices; ++rx) {
      if (tx == rx) continue;
      batch.push_back(
          {tx, rx, tick,
           base - static_cast<double>(index.stream_index(tx, rx))});
    }
  }
}

/// Ingest everything queued in `batch` and empty it for the next call.
std::vector<Tick> ingest(CentralStation& station,
                         std::vector<Measurement>& batch,
                         std::optional<Tick> now = std::nullopt) {
  const std::vector<Tick> ready = station.ingest(batch, now);
  batch.clear();
  return ready;
}

TEST(CentralStationTest, RejectsTooFewDevices) {
  EXPECT_THROW(CentralStation(1), Error);
}

TEST(CentralStationTest, RejectsZeroDeadline) {
  StationConfig config;
  config.deadline_ticks = 0;
  EXPECT_THROW(CentralStation(3, config), Error);
}

TEST(CentralStationTest, RejectsZeroPendingCapacity) {
  StationConfig config;
  config.max_pending = 0;
  EXPECT_THROW(CentralStation(3, config), Error);
}

TEST(CentralStationTest, StreamIndexIsDenseAndUnique) {
  CentralStation station(4);
  std::vector<bool> seen(station.stream_count(), false);
  for (DeviceId tx = 0; tx < 4; ++tx) {
    for (DeviceId rx = 0; rx < 4; ++rx) {
      if (tx == rx) continue;
      const std::size_t s = station.stream_index(tx, rx);
      ASSERT_LT(s, station.stream_count());
      EXPECT_FALSE(seen[s]);
      seen[s] = true;
    }
  }
}

TEST(CentralStationTest, StreamIndexRoundTripsOverAllPairs) {
  for (std::size_t devices : {2u, 3u, 5u, 9u}) {
    CentralStation station(devices);
    // tx/rx -> index -> tx/rx is the identity for every ordered pair...
    for (DeviceId tx = 0; tx < devices; ++tx) {
      for (DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx) continue;
        const auto [tx2, rx2] =
            station.stream_pair(station.stream_index(tx, rx));
        EXPECT_EQ(tx2, tx) << devices << " devices";
        EXPECT_EQ(rx2, rx) << devices << " devices";
      }
    }
    // ...and index -> tx/rx -> index covers every stream.
    for (std::size_t s = 0; s < station.stream_count(); ++s) {
      const auto [tx, rx] = station.stream_pair(s);
      EXPECT_NE(tx, rx);
      EXPECT_EQ(station.stream_index(tx, rx), s);
    }
  }
}

TEST(CentralStationTest, IncompleteTickIsNotReported) {
  CentralStation station(3);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 0, -50.0});
  batch.push_back({1, 0, 0, -52.0});
  EXPECT_TRUE(ingest(station, batch).empty());
}

TEST(CentralStationTest, CompleteTickAssemblesRow) {
  CentralStation station(3);
  std::vector<Measurement> batch;
  publish_full_round(batch, 3, 7, -40.0);
  const auto ready = ingest(station, batch);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 7);
  const auto row = station.take_row(7);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->tick, 7);
  EXPECT_TRUE(row->complete());
  ASSERT_EQ(row->values.size(), 6u);
  for (std::size_t s = 0; s < row->values.size(); ++s) {
    EXPECT_DOUBLE_EQ(row->values[s], -40.0 - static_cast<double>(s));
    EXPECT_TRUE(row->valid[s]);
  }
}

TEST(CentralStationTest, ReleasedRowsSurfaceInTickOrder) {
  // Deadline 2 keeps tick 0 assembling while tick 1 completes.  Under
  // the default deadline of 1 the tick-1 reports put the clock a full
  // tick past tick 0, which then leaves at once, imputed — the count
  // change that came with retiring strict mode, pinned at the end.
  StationConfig config;
  config.deadline_ticks = 2;
  CentralStation station(2, config);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 0, -50.0});
  batch.push_back({0, 1, 1, -51.0});
  batch.push_back({1, 0, 1, -61.0});
  // Tick 1 is complete but tick 0 is still assembling: nothing may be
  // surfaced yet, or MD would see an out-of-order stream.
  EXPECT_TRUE(ingest(station, batch).empty());
  // Completing tick 0 unblocks both, in order.
  batch.push_back({1, 0, 0, -60.0});
  const auto ready = ingest(station, batch);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], 0);
  EXPECT_EQ(ready[1], 1);

  CentralStation prompt(2);
  batch = {{0, 1, 0, -50.0}, {0, 1, 1, -51.0}, {1, 0, 1, -61.0}};
  const auto both = ingest(prompt, batch);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0], 0);
  EXPECT_EQ(both[1], 1);
  EXPECT_EQ(prompt.take_row(0)->missing, 1u);
  EXPECT_TRUE(prompt.take_row(1)->complete());
}

TEST(CentralStationTest, OutOfOrderTickDeliveryAssemblesBothTicks) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  // All of tick 3 arrives before any of tick 2.
  publish_full_round(batch, 2, 3, -45.0);
  publish_full_round(batch, 2, 2, -47.0);
  const auto ready = ingest(station, batch);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], 2);
  EXPECT_EQ(ready[1], 3);
  EXPECT_DOUBLE_EQ(station.take_row(2)->values[0], -47.0);
  EXPECT_DOUBLE_EQ(station.take_row(3)->values[0], -45.0);
}

TEST(CentralStationTest, TakeRowRemovesTheTick) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  publish_full_round(batch, 2, 3, -45.0);
  ingest(station, batch);
  EXPECT_TRUE(station.take_row(3).has_value());
  EXPECT_FALSE(station.take_row(3).has_value());
}

TEST(CentralStationTest, TakeRowReturnsNulloptForIncompleteTick) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 5, -50.0});
  ingest(station, batch);
  EXPECT_FALSE(station.take_row(5).has_value());
}

TEST(CentralStationTest, TakeRowReturnsNulloptForUnknownTick) {
  CentralStation station(2);
  EXPECT_FALSE(station.take_row(123).has_value());
}

TEST(CentralStationTest, DuplicateReportsKeepTheLatest) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 0, -50.0});
  batch.push_back({0, 1, 0, -55.0});
  batch.push_back({1, 0, 0, -60.0});
  const auto ready = ingest(station, batch);
  ASSERT_EQ(ready.size(), 1u);
  const auto row = station.take_row(0);
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->values[station.stream_index(0, 1)], -55.0);
  EXPECT_EQ(station.health().duplicates, 1u);
}

TEST(CentralStationTest, DuplicateAcrossIngestCallsStillLatestWins) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 0, -50.0});
  ingest(station, batch);
  batch.push_back({0, 1, 0, -52.0});  // newer report for the same cell
  batch.push_back({1, 0, 0, -60.0});
  ingest(station, batch);
  EXPECT_DOUBLE_EQ(station.take_row(0)->values[station.stream_index(0, 1)],
                   -52.0);
}

TEST(CentralStationTest, RejectsOutOfRangeDevices) {
  CentralStation station(3);
  EXPECT_THROW(station.stream_index(3, 0), ContractViolation);
  EXPECT_THROW(station.stream_index(0, 0), ContractViolation);
  EXPECT_THROW(station.stream_pair(6), ContractViolation);
}

TEST(CentralStationTest, DeadlineReleasesIncompleteRowWithImputation) {
  StationConfig config;
  config.deadline_ticks = 2;
  CentralStation station(2, config);
  std::vector<Measurement> batch;

  // Tick 0 completes normally: both streams carry real values.
  batch.push_back({0, 1, 0, -41.0});
  batch.push_back({1, 0, 0, -42.0});
  ingest(station, batch, 0);
  EXPECT_TRUE(station.take_row(0)->complete());

  // Tick 1 loses stream (1->0); the row must not release before the
  // deadline, then release with the lost cell imputed from tick 0.
  batch.push_back({0, 1, 1, -51.0});
  EXPECT_TRUE(ingest(station, batch, 1).empty());
  EXPECT_TRUE(ingest(station, batch, 2).empty());
  const auto ready = ingest(station, batch, 3);  // 3 - 1 >= deadline
  ASSERT_EQ(ready.size(), 1u);
  const auto row = station.take_row(1);
  ASSERT_TRUE(row.has_value());
  EXPECT_FALSE(row->complete());
  EXPECT_EQ(row->missing, 1u);
  const std::size_t fresh = station.stream_index(0, 1);
  const std::size_t stale = station.stream_index(1, 0);
  EXPECT_TRUE(row->valid[fresh]);
  EXPECT_DOUBLE_EQ(row->values[fresh], -51.0);
  EXPECT_FALSE(row->valid[stale]);
  EXPECT_DOUBLE_EQ(row->values[stale], -42.0);  // last released value

  EXPECT_EQ(station.health().incomplete_releases, 1u);
  EXPECT_EQ(station.health().imputed_cells, 1u);
  EXPECT_EQ(station.health().imputed_per_stream[stale], 1u);
  EXPECT_EQ(station.health().imputed_per_stream[fresh], 0u);
}

TEST(CentralStationTest, LateReportAfterReleaseIsCountedAndDiscarded) {
  StationConfig config;
  config.deadline_ticks = 1;
  CentralStation station(2, config);
  std::vector<Measurement> batch;
  batch.push_back({0, 1, 0, -50.0});
  ingest(station, batch, 5);  // deadline long past: released incomplete
  ASSERT_TRUE(station.take_row(0).has_value());

  batch.push_back({1, 0, 0, -60.0});  // the lost report finally shows up
  EXPECT_TRUE(ingest(station, batch, 6).empty());
  EXPECT_EQ(station.health().late_reports, 1u);
}

TEST(CentralStationTest, PendingIsBoundedAndEvictionsAreRecorded) {
  // Regression: a permanently missing stream used to grow pending_
  // without bound.  Feed many never-completing ticks and assert the
  // buffer stays capped and evictions are counted.
  const Tick ticks = 100;
  const auto feed = [ticks](CentralStation& station, bool expect_empty) {
    std::vector<Measurement> batch;
    for (Tick t = 0; t < ticks; ++t) {
      for (DeviceId tx = 0; tx < 3; ++tx) {
        for (DeviceId rx = 0; rx < 3; ++rx) {
          if (tx == rx) continue;
          if (tx == 2 && rx == 0) continue;  // stream (2->0) never reports
          batch.push_back({tx, rx, t, -50.0});
        }
      }
      const bool empty = ingest(station, batch).empty();
      if (expect_empty) {
        EXPECT_TRUE(empty) << t;
      }
      EXPECT_LE(station.buffered_count(), station.config().max_pending);
    }
  };
  // A deadline longer than the run: every row stays under assembly, as
  // the retired strict mode kept them, and only the cap drops them.
  StationConfig config;
  config.max_pending = 8;
  config.deadline_ticks = 1000;
  CentralStation held(3, config);
  feed(held, true);
  EXPECT_EQ(held.health().evictions,
            static_cast<std::uint64_t>(ticks) - config.max_pending);
  EXPECT_EQ(held.health().incomplete_releases, 0u);

  // The default deadline releases each row, imputed, once the next tick
  // arrives, so ingest() now reports ticks.  This caller never takes
  // them: released rows fill the cap instead and are evicted oldest
  // first — the same count.
  config.deadline_ticks = 1;
  CentralStation untaken(3, config);
  feed(untaken, false);
  EXPECT_EQ(untaken.health().evictions,
            static_cast<std::uint64_t>(ticks) - config.max_pending);
  EXPECT_EQ(untaken.health().incomplete_releases,
            static_cast<std::uint64_t>(ticks) - 1);
}

TEST(CentralStationTest, StrictModeStragglerDoesNotStallRelease) {
  // Regression: in the retired strict mode (deadline 0) the watermark
  // check used to be skipped, so a straggler for a tick already
  // released *and taken* re-opened a pending row that could never
  // complete — and held every newer released tick at the
  // monotone-release gate forever.
  CentralStation station(2);
  std::vector<Measurement> batch;
  publish_full_round(batch, 2, 0, -40.0);
  ASSERT_EQ(ingest(station, batch).size(), 1u);
  ASSERT_TRUE(station.take_row(0).has_value());

  // The straggler: a duplicate of a tick-0 report shows up late.
  batch.push_back({0, 1, 0, -40.0});
  EXPECT_TRUE(ingest(station, batch).empty());
  EXPECT_EQ(station.health().late_reports, 1u);
  EXPECT_EQ(station.buffered_count(), 0u);  // no re-opened pending row

  // Every newer tick must keep releasing.
  publish_full_round(batch, 2, 1, -41.0);
  const auto ready = ingest(station, batch);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1);
  EXPECT_TRUE(station.take_row(1).has_value());
}

TEST(CentralStationTest, HealthCountsReports) {
  CentralStation station(2);
  std::vector<Measurement> batch;
  publish_full_round(batch, 2, 0, -40.0);
  ingest(station, batch);
  EXPECT_EQ(station.health().reports, 2u);
  EXPECT_EQ(station.health().duplicates, 0u);
  EXPECT_EQ(station.health().evictions, 0u);
}

}  // namespace
}  // namespace fadewich::net
