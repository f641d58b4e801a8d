// Fleet determinism: a fleet week must be bit-identical regardless of
// how many pool threads step it, how the week is chopped into run_week
// calls, or how many other offices share the fleet.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::fleet {
namespace {

// Long enough to cover calibration, four training rounds (train_end is
// 2380 ticks with the default script), and several online cycles.
constexpr Tick kWeek = 4000;

FleetConfig small_fleet(std::size_t offices) {
  FleetConfig config;
  config.offices = offices;
  config.shard.system = default_shard_system();
  return config;
}

std::vector<std::uint32_t> shard_digests(const Fleet& fleet) {
  std::vector<std::uint32_t> digests;
  digests.reserve(fleet.offices());
  for (std::size_t i = 0; i < fleet.offices(); ++i) {
    digests.push_back(fleet.shard_digest(i));
  }
  return digests;
}

TEST(FleetDeterminism, WeekIsBitIdenticalAcrossThreadCounts) {
  std::vector<std::uint32_t> reference;
  std::uint32_t reference_digest = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    Fleet fleet(small_fleet(5), &pool);
    fleet.run_week(kWeek);
    if (reference.empty()) {
      reference = shard_digests(fleet);
      reference_digest = fleet.fleet_digest();
      continue;
    }
    EXPECT_EQ(shard_digests(fleet), reference)
        << "thread count " << threads << " changed shard outputs";
    EXPECT_EQ(fleet.fleet_digest(), reference_digest);
  }
}

TEST(FleetDeterminism, RunIsRepeatable) {
  exec::ThreadPool pool(4);
  Fleet a(small_fleet(4), &pool);
  Fleet b(small_fleet(4), &pool);
  a.run_week(kWeek);
  b.run_week(kWeek);
  EXPECT_EQ(a.fleet_digest(), b.fleet_digest());
}

TEST(FleetDeterminism, WeekMayBeChoppedIntoArbitraryRuns) {
  exec::ThreadPool pool(4);
  Fleet whole(small_fleet(3), &pool);
  Fleet chopped(small_fleet(3), &pool);
  whole.run_week(kWeek);
  // Boundaries deliberately misaligned with the 64-tick block quantum.
  chopped.run_week(7);
  chopped.run_week(1000);
  chopped.run_week(kWeek - 1007);
  EXPECT_EQ(chopped.tick(), whole.tick());
  EXPECT_EQ(chopped.fleet_digest(), whole.fleet_digest());
}

TEST(FleetDeterminism, ShardStreamIsIndependentOfFleetSize) {
  exec::ThreadPool pool(4);
  Fleet small(small_fleet(3), &pool);
  Fleet large(small_fleet(7), &pool);
  small.run_week(kWeek);
  large.run_week(kWeek);
  for (std::size_t i = 0; i < small.offices(); ++i) {
    EXPECT_EQ(small.shard_digest(i), large.shard_digest(i))
        << "office " << i << " depends on fleet size";
  }
}

TEST(FleetDeterminism, OfficesProduceDistinctStreams) {
  exec::ThreadPool pool(4);
  Fleet fleet(small_fleet(4), &pool);
  fleet.run_week(kWeek);
  for (std::size_t i = 1; i < fleet.offices(); ++i) {
    EXPECT_NE(fleet.shard_digest(0), fleet.shard_digest(i));
  }
}

TEST(FleetDeterminism, PipelineGoesOnlineAndDeauthenticates) {
  exec::ThreadPool pool(4);
  Fleet fleet(small_fleet(2), &pool);
  fleet.run_week(kWeek);
  for (std::size_t i = 0; i < fleet.offices(); ++i) {
    EXPECT_FALSE(fleet.shard(i).training()) << "office " << i;
  }
  EXPECT_GT(fleet.total_deauths(), 0u);
}

}  // namespace
}  // namespace fadewich::fleet
