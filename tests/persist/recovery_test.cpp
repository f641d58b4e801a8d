#include "fadewich/persist/recovery.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "fadewich/common/error.hpp"

namespace fadewich::persist {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on teardown.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fadewich_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  RecoveryConfig config() const {
    RecoveryConfig config;
    config.directory = dir_;
    config.ring_size = 3;
    config.backoff_ms = 0.0;
    return config;
  }

  /// A minimal snapshot that fits system_: tick N, one workstation, no
  /// classifier, MD still calibrating.
  static Snapshot tagged(std::uint64_t tick) {
    Snapshot snapshot;
    snapshot.system.tick = tick;
    snapshot.system.md.now = static_cast<Tick>(tick);
    snapshot.system.sessions.resize(1);
    snapshot.system.kma_last_input.assign(
        1, -std::numeric_limits<Seconds>::infinity());
    return snapshot;
  }

  std::string dir_;
  core::FadewichSystem system_{2, 1};  // what recover() imports into
};

TEST_F(RecoveryTest, ValidatesConfig) {
  EXPECT_THROW(RecoveryManager{RecoveryConfig{}}, Error);  // empty directory
  RecoveryConfig bad = config();
  bad.ring_size = 0;
  EXPECT_THROW(RecoveryManager{bad}, Error);
  bad = config();
  bad.max_retries = 0;
  EXPECT_THROW(RecoveryManager{bad}, Error);
  bad = config();
  bad.backoff_ms = -1.0;
  EXPECT_THROW(RecoveryManager{bad}, Error);
}

TEST_F(RecoveryTest, ColdStartOnEmptyDirectory) {
  RecoveryManager manager(config());
  RecoveryReport report;
  EXPECT_FALSE(manager.recover(system_, &report).has_value());
  EXPECT_TRUE(report.cold_start);
  EXPECT_TRUE(report.rejected.empty());
}

TEST_F(RecoveryTest, RecoversTheNewestSnapshot) {
  RecoveryManager manager(config());
  manager.checkpoint(tagged(100));
  manager.checkpoint(tagged(200));
  manager.checkpoint(tagged(300));
  RecoveryReport report;
  const auto snapshot = manager.recover(system_, &report);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 300u);
  EXPECT_EQ(system_.tick(), 300);  // imported, not just loaded
  EXPECT_FALSE(report.cold_start);
  EXPECT_TRUE(report.rejected.empty());
}

TEST_F(RecoveryTest, FallsBackPastASnapshotThatDoesNotImport) {
  RecoveryManager manager(config());
  manager.checkpoint(tagged(100));
  Snapshot misfit = tagged(200);  // a two-workstation deployment's
  misfit.system.sessions.resize(2);
  misfit.system.kma_last_input.resize(2);
  const std::string newest = manager.checkpoint(misfit);
  RecoveryReport report;
  const auto snapshot = manager.recover(system_, &report);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 100u);
  EXPECT_EQ(system_.tick(), 100);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].path, newest);
  EXPECT_NE(report.rejected[0].reason.find("2 sessions"), std::string::npos)
      << report.rejected[0].reason;
}

TEST_F(RecoveryTest, RingIsPrunedToConfiguredSize) {
  RecoveryManager manager(config());
  for (std::uint64_t t = 1; t <= 7; ++t) manager.checkpoint(tagged(t));
  const auto ring = manager.ring();
  ASSERT_EQ(ring.size(), 3u);
  // Oldest retained snapshot is #5 of 7.
  const auto snapshot = load_snapshot(ring.front());
  EXPECT_EQ(snapshot.system.tick, 5u);
  EXPECT_EQ(manager.checkpoints_written(), 7u);
}

TEST_F(RecoveryTest, FallsBackPastACorruptNewestSnapshot) {
  RecoveryManager manager(config());
  manager.checkpoint(tagged(100));
  const std::string newest = manager.checkpoint(tagged(200));
  {
    // Flip one payload bit: the CRC must catch it.
    std::string bytes;
    {
      std::ifstream f(newest, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>());
    }
    bytes[40] = static_cast<char>(bytes[40] ^ 0x40);
    std::ofstream(newest, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  RecoveryReport report;
  const auto snapshot = manager.recover(system_, &report);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 100u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].path, newest);
}

TEST_F(RecoveryTest, FallsBackPastATruncatedSnapshot) {
  RecoveryManager manager(config());
  manager.checkpoint(tagged(100));
  const std::string newest = manager.checkpoint(tagged(200));
  fs::resize_file(newest, fs::file_size(newest) / 2);
  const auto snapshot = manager.recover(system_);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 100u);
}

TEST_F(RecoveryTest, AllCorruptMeansColdStartNotAbort) {
  RecoveryManager manager(config());
  for (std::uint64_t t = 1; t <= 3; ++t) manager.checkpoint(tagged(t));
  for (const std::string& path : manager.ring()) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << "not a snapshot";
  }
  RecoveryReport report;
  EXPECT_FALSE(manager.recover(system_, &report).has_value());
  EXPECT_TRUE(report.cold_start);
  EXPECT_EQ(report.rejected.size(), 3u);
}

TEST_F(RecoveryTest, NumberingContinuesAcrossInstances) {
  std::string first;
  {
    RecoveryManager manager(config());
    first = manager.checkpoint(tagged(1));
    manager.checkpoint(tagged(2));
  }
  RecoveryManager reborn(config());
  const std::string next = reborn.checkpoint(tagged(3));
  EXPECT_NE(next, first);
  const auto snapshot = reborn.recover(system_);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 3u);  // new file sorts newest
}

TEST_F(RecoveryTest, ForeignFilesInTheDirectoryAreIgnored) {
  RecoveryManager manager(config());
  std::ofstream(fs::path(dir_) / "README.txt") << "hands off";
  // A temp file torn by a crash mid-write is not a snapshot either.
  const fs::path torn = fs::path(dir_) / "snap-00000099.fdws.tmp";
  std::ofstream(torn, std::ios::binary) << "FDWS";
  manager.checkpoint(tagged(42));
  EXPECT_EQ(manager.ring().size(), 1u);
  const auto snapshot = manager.recover(system_);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->system.tick, 42u);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "README.txt"));
  EXPECT_TRUE(fs::exists(torn));
}

}  // namespace
}  // namespace fadewich::persist
