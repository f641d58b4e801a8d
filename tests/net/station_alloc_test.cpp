// Allocation budget of the station's RowSink form: once warm, a tick of
// in-order traffic — clean, lossy (rows released imputed), or carrying
// stragglers — must not touch the heap.  The slot pool and its vectors
// are reused; only growth past the warm-up high-water mark may allocate.
//
// Counting works by replacing the global allocation functions in this
// test binary (common/counting_allocator.hpp).  Assertions run only
// outside the counted region.
#include "fadewich/net/central_station.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/counting_allocator.hpp"

namespace fadewich::net {
namespace {

constexpr std::size_t kDevices = 9;

/// One tick of reports; every 7th tick loses a report, every 11th
/// carries a straggler for the previous tick.
void fill_tick(std::vector<Measurement>& batch, Tick tick) {
  batch.clear();
  for (DeviceId tx = 0; tx < kDevices; ++tx) {
    for (DeviceId rx = 0; rx < kDevices; ++rx) {
      if (tx == rx || (tick % 7 == 3 && tx == 2 && rx == 5)) continue;
      batch.push_back({tx, rx, tick, -40.0 - static_cast<double>(tick % 13)});
    }
  }
  if (tick % 11 == 0 && tick > 0) batch.push_back({1, 0, tick - 1, -60.0});
}

TEST(StationAllocTest, RowSinkTicksAreAllocationFreeAfterWarmUp) {
  CentralStation station(kDevices);
  std::vector<Measurement> batch;
  batch.reserve(kDevices * kDevices);
  std::uint64_t rows = 0;
  const CentralStation::RowSink sink = [&rows](const StationRow&) {
    ++rows;
  };
  Tick tick = 0;
  for (; tick < 100; ++tick) {  // warm-up
    fill_tick(batch, tick);
    station.ingest(batch, sink);
  }
  const std::uint64_t warm_rows = rows;
  std::uint64_t allocs = 0;
  {
    test::CountingScope scope;
    for (; tick < 1100; ++tick) {
      fill_tick(batch, tick);
      station.ingest(batch, sink);
    }
    allocs = scope.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rows - warm_rows, 1000u);
  EXPECT_GT(station.health().incomplete_releases, 0u);
  EXPECT_GT(station.health().late_reports, 0u);
}

}  // namespace
}  // namespace fadewich::net
