#include "fadewich/sim/recording.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::sim {
namespace {

Recording make_recording(std::size_t sensors = 3) {
  return Recording(5.0, sensors, 60.0, 2);
}

TEST(RecordingTest, RejectsInvalidConstruction) {
  EXPECT_THROW(Recording(5.0, 1, 60.0, 1), ContractViolation);
  EXPECT_THROW(Recording(5.0, 3, 0.0, 1), ContractViolation);
  EXPECT_THROW(Recording(5.0, 3, 60.0, 0), ContractViolation);
}

TEST(RecordingTest, StreamCountIsOrderedPairs) {
  const Recording rec = make_recording(4);
  EXPECT_EQ(rec.stream_count(), 12u);
  EXPECT_EQ(rec.sensor_count(), 4u);
}

TEST(RecordingTest, DurationAccounting) {
  const Recording rec = make_recording();
  EXPECT_DOUBLE_EQ(rec.day_length(), 60.0);
  EXPECT_EQ(rec.day_count(), 2u);
  EXPECT_DOUBLE_EQ(rec.total_duration(), 120.0);
  EXPECT_EQ(rec.tick_count(), 0);
}

TEST(RecordingTest, AppendAndReadBack) {
  Recording rec = make_recording();
  std::vector<double> row(rec.stream_count(), -55.4);
  rec.append_samples(row);
  row.assign(rec.stream_count(), -60.6);
  rec.append_samples(row);
  EXPECT_EQ(rec.tick_count(), 2);
  EXPECT_DOUBLE_EQ(rec.rssi(0, 0), -55.0);  // rounded to int8 dBm
  EXPECT_DOUBLE_EQ(rec.rssi(0, 1), -61.0);
}

TEST(RecordingTest, AppendRejectsWrongWidth) {
  Recording rec = make_recording();
  std::vector<double> row(2, -50.0);
  EXPECT_THROW(rec.append_samples(row), ContractViolation);
}

TEST(RecordingTest, RssiRejectsOutOfRange) {
  Recording rec = make_recording();
  std::vector<double> row(rec.stream_count(), -50.0);
  rec.append_samples(row);
  EXPECT_THROW(rec.rssi(0, 1), ContractViolation);
  EXPECT_THROW(rec.rssi(rec.stream_count(), 0), ContractViolation);
}

TEST(RecordingTest, ValuesClampToInt8Range) {
  Recording rec = make_recording();
  std::vector<double> row(rec.stream_count(), -500.0);
  rec.append_samples(row);
  EXPECT_DOUBLE_EQ(rec.rssi(0, 0), -128.0);
}

TEST(RecordingTest, StreamIndexMatchesRowMajorOrder) {
  const Recording rec = make_recording(3);
  EXPECT_EQ(rec.stream_index(0, 1), 0u);
  EXPECT_EQ(rec.stream_index(0, 2), 1u);
  EXPECT_EQ(rec.stream_index(1, 0), 2u);
  EXPECT_EQ(rec.stream_index(1, 2), 3u);
  EXPECT_EQ(rec.stream_index(2, 0), 4u);
  EXPECT_EQ(rec.stream_index(2, 1), 5u);
  EXPECT_THROW(rec.stream_index(1, 1), ContractViolation);
}

TEST(RecordingTest, StreamsForSensorSubset) {
  const Recording rec = make_recording(4);
  const auto streams = rec.streams_for_sensors({0, 2});
  // Ordered pairs among {0, 2}: (0,2) then (2,0).
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0], rec.stream_index(0, 2));
  EXPECT_EQ(streams[1], rec.stream_index(2, 0));
}

TEST(RecordingTest, StreamsForSensorsRejectsSingleton) {
  const Recording rec = make_recording();
  EXPECT_THROW(rec.streams_for_sensors({0}), ContractViolation);
}

/// A 3-sensor recording of `ticks` ticks: stream s at tick t holds
/// -40 - s - (t % 2) dBm.
Recording alternating_recording(int ticks) {
  Recording rec = make_recording(3);
  for (int t = 0; t < ticks; ++t) {
    std::vector<double> row(rec.stream_count());
    for (std::size_t s = 0; s < row.size(); ++s) {
      row[s] = -40.0 - static_cast<double>(s) - (t % 2);
    }
    rec.append_samples(row);
  }
  return rec;
}

TEST(RecordingTest, CopyRowsReadsARowMajorBlockInTickOrder) {
  const Recording rec = alternating_recording(10);
  const std::vector<std::size_t> streams{0, 1, 2, 3, 4, 5};
  std::vector<double> block(3 * streams.size());
  rec.copy_rows(streams, 4, 6, block);
  for (Tick t = 4; t <= 6; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      EXPECT_DOUBLE_EQ(block[static_cast<std::size_t>(t - 4) * 6 + i],
                       rec.rssi(streams[i], t));
    }
  }
}

TEST(RecordingTest, CopyRowsOfASensorSubset) {
  const Recording rec = alternating_recording(10);
  const std::vector<std::size_t> streams = rec.streams_for_sensors({0, 2});
  std::vector<double> row(2);
  rec.copy_rows(streams, 1, 1, row);
  EXPECT_DOUBLE_EQ(row[0], rec.rssi(rec.stream_index(0, 2), 1));
  EXPECT_DOUBLE_EQ(row[1], rec.rssi(rec.stream_index(2, 0), 1));
  EXPECT_DOUBLE_EQ(row[1], -45.0);
}

TEST(RecordingTest, CopyRowsRejectsUnrecordedTicks) {
  const Recording rec = alternating_recording(10);
  const std::vector<std::size_t> streams{0, 1};
  std::vector<double> row(2);
  EXPECT_NO_THROW(rec.copy_rows(streams, 9, 9, row));  // the last tick
  EXPECT_THROW(rec.copy_rows(streams, 10, 10, row), ContractViolation);
  EXPECT_THROW(rec.copy_rows(streams, -1, -1, row), ContractViolation);
  EXPECT_THROW(rec.copy_rows(streams, 5, 4, row), ContractViolation);
}

TEST(RecordingTest, CopyRowsRejectsWrongBufferSize) {
  const Recording rec = alternating_recording(10);
  const std::vector<std::size_t> streams{0, 1};
  std::vector<double> row(2);
  EXPECT_NO_THROW(rec.copy_rows(streams, 0, 0, row));
  std::vector<double> short_buf(1);
  EXPECT_THROW(rec.copy_rows(streams, 0, 0, short_buf), ContractViolation);
  std::vector<double> wrong(3);
  EXPECT_THROW(rec.copy_rows(streams, 0, 0, wrong), ContractViolation);
}

TEST(RecordingTest, SeatedAtQueriesIntervals) {
  Recording rec = make_recording();
  rec.seated_intervals().assign(2, {});
  rec.seated_intervals()[0].push_back({10.0, 20.0});
  rec.seated_intervals()[0].push_back({30.0, 40.0});
  EXPECT_TRUE(rec.seated_at(0, 15.0));
  EXPECT_TRUE(rec.seated_at(0, 10.0));
  EXPECT_FALSE(rec.seated_at(0, 25.0));
  EXPECT_FALSE(rec.seated_at(1, 15.0));
  EXPECT_THROW(rec.seated_at(2, 15.0), ContractViolation);
}

}  // namespace
}  // namespace fadewich::sim
