// Supervised fleet recovery: killing one shard mid-week must recover it
// through the fleet's restart pass without perturbing any neighbor's
// output, and a shard that keeps faulting is retired at its bound.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

constexpr Tick kWeek = 3200;
constexpr std::size_t kOffices = 5;
constexpr std::size_t kVictim = 2;

class FleetSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fadewich_fleet_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  FleetConfig supervised(const std::string& subdir) const {
    FleetConfig config;
    config.offices = kOffices;
    config.shard.system = default_shard_system();
    config.recovery.directory = root_ + "/" + subdir;
    config.recovery.checkpoint_period = 300;
    return config;
  }

  std::string root_;
};

TEST_F(FleetSupervisorTest, CrashedShardRecoversWithoutPerturbingNeighbors) {
  exec::ThreadPool pool(4);

  Fleet reference(supervised("reference"), &pool);
  reference.run_week(kWeek);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < kOffices; ++i) {
    expected.push_back(reference.shard_digest(i));
  }
  ASSERT_EQ(reference.total_restarts(), 0u);

  Fleet crashed(supervised("crashed"), &pool);
  crashed.inject_crash(kVictim, kWeek / 2);
  const RunStats stats = crashed.run_week(kWeek);

  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(crashed.total_restarts(), 1u);
  EXPECT_FALSE(crashed.shard(kVictim).faulted());
  EXPECT_EQ(crashed.shard(kVictim).tick(), kWeek);

  for (std::size_t i = 0; i < kOffices; ++i) {
    EXPECT_FALSE(crashed.retired(i));
    if (i == kVictim) continue;
    EXPECT_EQ(crashed.shard(i).restores(), 0u);
    EXPECT_EQ(crashed.shard_digest(i), expected[i])
        << "recovery of office " << kVictim << " perturbed office " << i;
  }
  // The victim keeps running the same deterministic stream; its week
  // still ends online with the rest of the fleet.
  EXPECT_FALSE(crashed.shard(kVictim).training());
}

TEST_F(FleetSupervisorTest, RecoveryPrefersTheSnapshotRing) {
  exec::ThreadPool pool(2);
  Fleet fleet(supervised("ring"), &pool);
  // Crash well past the first checkpoint so a warm restore is possible.
  fleet.inject_crash(kVictim, 1100);
  fleet.run_week(2000);
  EXPECT_EQ(fleet.total_restarts(), 1u);
  EXPECT_EQ(fleet.shard(kVictim).restores(), 1u);
  EXPECT_FALSE(fleet.shard(kVictim).faulted());
  EXPECT_EQ(fleet.shard(kVictim).tick(), 2000);
}

TEST_F(FleetSupervisorTest, RepeatedCrashesExhaustTheRestartBudget) {
  exec::ThreadPool pool(4);

  Fleet reference(supervised("budget_ref"), &pool);
  reference.run_week(kWeek);

  FleetConfig config = supervised("budget");
  config.recovery.max_restarts = 1;
  Fleet fleet(config, &pool);
  fleet.inject_crash(kVictim, 800);
  fleet.run_week(1000);
  ASSERT_EQ(fleet.total_restarts(), 1u);

  // A second crash exceeds max_restarts = 1: the office is retired
  // without another restore and the shard stays parked at its failing
  // tick.
  fleet.inject_crash(kVictim, 1600);
  const RunStats stats = fleet.run_week(kWeek - 1000);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(fleet.total_restarts(), 1u);

  std::size_t retired = 0;
  for (std::size_t i = 0; i < kOffices; ++i) retired += fleet.retired(i);
  EXPECT_EQ(retired, 1u);
  EXPECT_TRUE(fleet.retired(kVictim));
  EXPECT_TRUE(fleet.shard(kVictim).faulted());
  EXPECT_LT(fleet.shard(kVictim).tick(), kWeek);

  // The retired shard must not take the rest of the campus with it.
  for (std::size_t i = 0; i < kOffices; ++i) {
    if (i == kVictim) continue;
    EXPECT_EQ(fleet.shard(i).tick(), kWeek);
    EXPECT_EQ(fleet.shard_digest(i), reference.shard_digest(i));
  }
}

TEST_F(FleetSupervisorTest, UnsupervisedFleetHasNoSupervisor) {
  FleetConfig config;
  config.offices = 2;
  config.shard.system = default_shard_system();
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  EXPECT_FALSE(fleet.supervised());
  // Without a snapshot ring a crashed office is neither restarted nor
  // retired: it just stays parked.
  fleet.inject_crash(1, 300);
  EXPECT_EQ(fleet.run_week(500).restarts, 0u);
  EXPECT_TRUE(fleet.shard(1).faulted());
  EXPECT_FALSE(fleet.retired(1));
  EXPECT_EQ(fleet.total_restarts(), 0u);
}

TEST_F(FleetSupervisorTest, ValidatesTheRestartBound) {
  FleetConfig config = supervised("bound");
  config.recovery.max_restarts = 0;
  exec::ThreadPool pool(1);
  EXPECT_THROW(Fleet(config, &pool), Error);
}

TEST_F(FleetSupervisorTest, CrashBehindTheCursorIsRejected) {
  exec::ThreadPool pool(2);
  Fleet fleet(supervised("behind"), &pool);
  fleet.run_week(500);
  EXPECT_THROW(fleet.inject_crash(0, 100), Error);
}

}  // namespace
}  // namespace fadewich::fleet
