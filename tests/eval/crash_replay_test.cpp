// Crash-injection acceptance: killing the pipeline at scheduled ticks
// and resurrecting it from the snapshot ring must reproduce the
// uninterrupted run's deauthentication decisions once the documented
// re-warm window has passed.
#include "fadewich/eval/crash_replay.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "fadewich/eval/paper_setup.hpp"

namespace fadewich::eval {
namespace {

namespace fs = std::filesystem;

class CrashReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PaperSetup setup = small_setup(3, 40.0 * 60.0);
    setup.seed = 4242;
    setup.day.min_breaks = 2;
    setup.day.max_breaks = 3;
    experiment_ = std::make_unique<PaperExperiment>(
        make_paper_experiment(setup));
    reference_ = std::make_unique<std::vector<ActionRecord>>(
        run_online(experiment_->recording, kWorkstations, online_config()));
  }

  static void TearDownTestSuite() {
    experiment_.reset();
    reference_.reset();
  }

  static constexpr std::size_t kWorkstations = 3;

  static OnlineRunConfig online_config() {
    OnlineRunConfig config;
    config.system.md = default_md_config();
    // Two training days, one online day (matches the end-to-end test).
    config.training_duration = 2.0 * 40.0 * 60.0;
    return config;
  }

  static const sim::Recording& recording() {
    return experiment_->recording;
  }

  CrashReplayConfig crash_config(Tick crash_tick) {
    CrashReplayConfig config;
    config.online = online_config();
    config.crash_tick = crash_tick;
    config.recovery.checkpoint_period = 600;  // every 2 minutes at 5 Hz
    config.recovery.directory = dir_;
    config.recovery.backoff_ms = 0.0;
    return config;
  }

  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fadewich_crash_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The acceptance check shared by every crash point: no divergence
  /// after the re-warm window, and identical case A/B/C outcomes for
  /// every leave event past it.
  void expect_reconvergence(const CrashReplayConfig& config) {
    const CrashReplayResult crashed =
        run_with_crash(recording(), kWorkstations, config);
    EXPECT_FALSE(crashed.cold_start);
    EXPECT_LE(crashed.restored_tick, crashed.crash_tick + 1);
    EXPECT_GT(crashed.restored_tick, 0);

    const Seconds rewarm = rewarm_bound(config);
    const auto divergence = compare_actions(
        *reference_, crashed, recording().rate(), rewarm);
    // The hard criterion: Rule 1 deauthentication decisions never diverge
    // past the re-warm window.
    EXPECT_EQ(divergence.divergent_deauths_after_rewarm, 0u)
        << "crash at tick " << config.crash_tick << ", restored at "
        << crashed.restored_tick << ": deauth decisions diverge beyond the "
        << "re-warm window (" << rewarm << " s)";
    // Alert bursts may gain or lose a boundary tick (the profile's update
    // queue is offset by the offers dropped during re-warm), but only a
    // sliver of the stream.
    EXPECT_LE(divergence.divergent_after_rewarm,
              divergence.reference_actions / 50 + 2)
        << divergence.divergent_after_rewarm << " of "
        << divergence.reference_actions << " actions diverge";

    // Case A/B/C outcomes for leave events after the re-warm window
    // must match the uninterrupted run exactly.
    const Seconds settle = recording().rate().to_seconds(
                               crashed.restored_tick) + rewarm;
    const auto ref_outcomes = leave_outcomes(recording(), *reference_);
    const auto got_outcomes = leave_outcomes(recording(), crashed.actions);
    ASSERT_EQ(ref_outcomes.size(), got_outcomes.size());
    std::size_t checked = 0, index = 0;
    for (const auto& event : recording().events()) {
      if (event.kind != sim::EventKind::kLeave) continue;
      if (event.movement_start > settle) {
        EXPECT_EQ(got_outcomes[index].outcome, ref_outcomes[index].outcome)
            << "leave event at " << event.movement_start << " s";
        ++checked;
      }
      ++index;
    }
    EXPECT_GT(checked, 0u) << "no leave events after the re-warm window "
                              "- crash point too late to be meaningful";
  }

  static std::unique_ptr<PaperExperiment> experiment_;
  static std::unique_ptr<std::vector<ActionRecord>> reference_;
  std::string dir_;
};

std::unique_ptr<PaperExperiment> CrashReplayTest::experiment_;
std::unique_ptr<std::vector<ActionRecord>> CrashReplayTest::reference_;

// Crash point 1: mid training (day 1).  The training set and profile
// come back from the ring; the online day must be unaffected.
TEST_F(CrashReplayTest, CrashDuringTrainingReconverges) {
  expect_reconvergence(crash_config(recording().tick_count() / 6));
}

// Crash point 2: right after the online switch, while the classifier is
// freshly trained — the SVM state must survive the restart.
TEST_F(CrashReplayTest, CrashAtOnlineSwitchReconverges) {
  const Tick online_start = static_cast<Tick>(
      recording().rate().to_ticks_ceil(2.0 * 40.0 * 60.0));
  expect_reconvergence(crash_config(online_start + 900));
}

// Crash point 3: mid online day, between deauthentication decisions.
TEST_F(CrashReplayTest, CrashMidOnlineDayReconverges) {
  expect_reconvergence(crash_config(recording().tick_count() * 5 / 6));
}

// No checkpoint before the crash: recovery cold-starts and the replay
// re-runs the whole recording deterministically — identical decisions,
// degraded start flagged.
TEST_F(CrashReplayTest, ColdStartReplaysDeterministically) {
  CrashReplayConfig config = crash_config(400);
  config.recovery.checkpoint_period = 100000;  // never fires before tick 400
  const CrashReplayResult crashed =
      run_with_crash(recording(), kWorkstations, config);
  EXPECT_TRUE(crashed.cold_start);
  EXPECT_EQ(crashed.restored_tick, 0);
  const auto divergence = compare_actions(
      *reference_, crashed, recording().rate(), 0.0);
  EXPECT_EQ(divergence.divergent_in_rewarm, 0u);
  EXPECT_EQ(divergence.divergent_after_rewarm, 0u);
  EXPECT_EQ(leave_outcomes(recording(), crashed.actions),
            leave_outcomes(recording(), *reference_));
}

// A corrupted newest snapshot plus a truncated second-newest: recovery
// must fall back across the ring (or cold-start) without aborting.
TEST_F(CrashReplayTest, CorruptedRingFallsBackWithoutAborting) {
  CrashReplayConfig config = crash_config(recording().tick_count() / 4);

  // Phase 1 equivalent: populate a ring, then damage the newest files.
  {
    core::SystemConfig system_config = config.online.system;
    system_config.tick_hz = recording().rate().hz();
    core::FadewichSystem system(recording().stream_count(), kWorkstations,
                                system_config);
    persist::RecoveryManager recovery(config.recovery);
    std::vector<double> row(recording().stream_count());
    for (Tick t = 0; t < 2000; ++t) {
      for (std::size_t s = 0; s < row.size(); ++s) {
        row[s] = recording().rssi(s, t);
      }
      system.step(row);
      if ((t + 1) % 600 == 0) {
        persist::Snapshot snapshot;
        snapshot.system = system.export_state();
        recovery.checkpoint(snapshot);
      }
    }
    auto ring = recovery.ring();
    ASSERT_GE(ring.size(), 3u);
    // Corrupt the newest, truncate the second newest.
    {
      std::fstream f(ring.back(), std::ios::in | std::ios::out |
                                      std::ios::binary);
      f.seekp(60);
      char byte = 0;
      f.seekg(60);
      f.get(byte);
      f.seekp(60);
      f.put(static_cast<char>(byte ^ 0x40));
    }
    fs::resize_file(ring[ring.size() - 2],
                    fs::file_size(ring[ring.size() - 2]) / 3);
  }

  core::SystemConfig system_config = config.online.system;
  system_config.tick_hz = recording().rate().hz();
  core::FadewichSystem system(recording().stream_count(), kWorkstations,
                              system_config);
  persist::RecoveryManager recovery(config.recovery);
  persist::RecoveryReport report;
  const auto snapshot = recovery.recover(system, report);
  ASSERT_TRUE(snapshot.has_value());  // third-newest survives
  EXPECT_EQ(report.rejected.size(), 2u);
  EXPECT_EQ(snapshot->system.tick, 600u);  // the oldest of the three
  EXPECT_EQ(system.tick(), 600);
}

}  // namespace
}  // namespace fadewich::eval
