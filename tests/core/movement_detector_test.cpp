#include "fadewich/core/movement_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::core {
namespace {

constexpr double kHz = 5.0;

MovementDetectorConfig fast_config() {
  MovementDetectorConfig config;
  config.std_window = 2.0;
  config.calibration = 20.0;
  config.merge_gap = 0.6;
  config.profile.capacity = 100;
  config.profile.batch_size = 50;
  return config;
}

/// Feed `seconds` of N(-60, sigma) samples on every stream, appending
/// each window a step closes to `closed` if given: a closing step never
/// extends the window, so it is the one reported before that step.
void feed(MovementDetector& md, Rng& rng, double seconds, double sigma,
          std::vector<VariationWindow>* closed = nullptr) {
  const auto ticks = static_cast<int>(seconds * kHz);
  std::vector<double> row(3);
  for (int t = 0; t < ticks; ++t) {
    for (auto& v : row) v = rng.normal(-60.0, sigma);
    const std::optional<VariationWindow> open = md.current_window();
    md.step(row);
    const std::optional<VariationWindow> now = md.current_window();
    if (closed && open && (!now || now->begin != open->begin)) {
      closed->push_back(*open);
    }
  }
}

TEST(MovementDetectorTest, StartsCalibrating) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(3);
  std::vector<double> row(3, -60.0);
  EXPECT_EQ(md.step(row), MdState::kCalibrating);
  EXPECT_FALSE(md.calibrated());
  EXPECT_DOUBLE_EQ(md.current_window_duration(), 0.0);
}

TEST(MovementDetectorTest, CalibratesAfterConfiguredPeriod) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(5);
  feed(md, rng, 25.0, 0.5);
  EXPECT_TRUE(md.calibrated());
}

TEST(MovementDetectorTest, QuietStreamsStayMostlyNormal) {
  // Consecutive s_t values share most of their std window, so the
  // effective sample size of the profile is far below its nominal
  // capacity and the percentile threshold is a noisy estimate; use a
  // large profile and a long run so the self-update can settle.
  MovementDetectorConfig config = fast_config();
  config.calibration = 60.0;
  config.profile.capacity = 400;
  MovementDetector md(3, kHz, config);
  Rng rng(7);
  feed(md, rng, 65.0, 0.5);
  std::size_t anomalous = 0;
  std::vector<double> row(3);
  const int ticks = 3000;
  for (int t = 0; t < ticks; ++t) {
    for (auto& v : row) v = rng.normal(-60.0, 0.5);
    if (md.step(row) == MdState::kAnomalous) ++anomalous;
  }
  // alpha = 1% nominal; allow generous estimation slack.
  EXPECT_LT(anomalous, ticks / 15);
}

TEST(MovementDetectorTest, VarianceJumpTriggersAnomaly) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(9);
  feed(md, rng, 30.0, 0.5);
  // Sudden variance increase on all streams.
  std::vector<double> row(3);
  bool any_anomalous = false;
  for (int t = 0; t < 50; ++t) {
    for (auto& v : row) v = rng.normal(-60.0, 5.0);
    if (md.step(row) == MdState::kAnomalous) any_anomalous = true;
  }
  EXPECT_TRUE(any_anomalous);
  EXPECT_TRUE(md.current_window().has_value());
  EXPECT_GT(md.last_sum_std(), md.profile().threshold());
}

TEST(MovementDetectorTest, WindowClosesWhenQuietReturns) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(11);
  std::vector<VariationWindow> closed;
  feed(md, rng, 30.0, 0.5, &closed);
  feed(md, rng, 6.0, 5.0, &closed);   // movement
  feed(md, rng, 10.0, 0.5, &closed);  // quiet again
  EXPECT_FALSE(md.current_window().has_value());
  ASSERT_FALSE(closed.empty());
  // Isolated noise ticks may close tiny windows after the movement; the
  // movement itself must be the longest completed window.
  double duration = 0.0;
  for (const VariationWindow& w : closed) {
    duration = std::max(
        duration, static_cast<double>(w.end - w.begin + 1) / kHz);
  }
  // The movement lasted 6 s; the std window extends the tail ~2 s.
  EXPECT_GT(duration, 4.0);
  EXPECT_LT(duration, 11.0);
}

TEST(MovementDetectorTest, ShortGapsMergeIntoOneWindow) {
  MovementDetectorConfig config = fast_config();
  config.merge_gap = 1.0;
  MovementDetector md(3, kHz, config);
  Rng rng(13);
  std::vector<VariationWindow> closed;
  feed(md, rng, 30.0, 0.5, &closed);
  feed(md, rng, 3.0, 5.0, &closed);
  feed(md, rng, 0.4, 0.5, &closed);  // dip shorter than the merge gap
  feed(md, rng, 3.0, 5.0, &closed);
  feed(md, rng, 10.0, 0.5, &closed);
  // The dip may keep st high anyway (the std window bridges it); the
  // invariant is that no *short* separate window appears.
  ASSERT_FALSE(closed.empty());
  const VariationWindow w = closed.back();
  EXPECT_GT(static_cast<double>(w.end - w.begin + 1) / kHz, 5.0);
}

TEST(MovementDetectorTest, WindowDurationTracksOpenWindow) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(15);
  feed(md, rng, 30.0, 0.5);
  feed(md, rng, 4.0, 6.0);
  EXPECT_TRUE(md.current_window().has_value());
  EXPECT_GT(md.current_window_duration(), 2.0);
  EXPECT_LT(md.current_window_duration(), 6.0);
}

TEST(MovementDetectorTest, StepRejectsWrongRowWidth) {
  MovementDetector md(3, kHz, fast_config());
  std::vector<double> wrong(2, -60.0);
  EXPECT_THROW(md.step(wrong), ContractViolation);
}

TEST(MovementDetectorTest, RejectsInvalidConstruction) {
  EXPECT_THROW(MovementDetector(0, kHz, fast_config()),
               ContractViolation);
  MovementDetectorConfig bad = fast_config();
  bad.std_window = 0.0;
  EXPECT_THROW(MovementDetector(3, kHz, bad), ContractViolation);
}

TEST(MovementDetectorTest, NowCountsSteps) {
  MovementDetector md(1, kHz, fast_config());
  std::vector<double> row(1, -60.0);
  for (int i = 0; i < 7; ++i) md.step(row);
  EXPECT_EQ(md.now(), 7);
}

TEST(MovementDetectorTest, SumStdUsesAllStreams) {
  // With identical per-stream noise, st should scale with stream count.
  MovementDetectorConfig config = fast_config();
  MovementDetector md3(3, kHz, config);
  MovementDetector md6(6, kHz, config);
  Rng rng_a(17);
  Rng rng_b(17);
  std::vector<double> row3(3);
  std::vector<double> row6(6);
  for (int t = 0; t < 300; ++t) {
    for (auto& v : row3) v = rng_a.normal(-60.0, 1.0);
    for (auto& v : row6) v = rng_b.normal(-60.0, 1.0);
    md3.step(row3);
    md6.step(row6);
  }
  EXPECT_NEAR(md6.last_sum_std() / md3.last_sum_std(), 2.0, 0.5);
}

TEST(MovementDetectorTest, AllValidMaskMatchesUnmaskedBitForBit) {
  MovementDetector plain(3, kHz, fast_config());
  MovementDetector masked(3, kHz, fast_config());
  Rng rng(17);
  const std::vector<std::uint8_t> all_valid(3, 1);
  std::vector<double> row(3);
  for (int t = 0; t < 200; ++t) {
    for (auto& v : row) v = rng.normal(-60.0, 0.8);
    const MdState a = plain.step(row);
    const MdState b = masked.step(row, all_valid);
    ASSERT_EQ(a, b) << "tick " << t;
    // Bit-identical, not just close: the fault-free path must not be
    // perturbed by the mask plumbing.
    ASSERT_EQ(plain.last_sum_std(), masked.last_sum_std()) << "tick " << t;
  }
  EXPECT_EQ(masked.degraded_ticks(), 0u);
  EXPECT_DOUBLE_EQ(masked.last_live_fraction(), 1.0);
}

TEST(MovementDetectorTest, StaleStreamIsExcludedFromSumStd) {
  // Stream 2 goes wild but is flagged stale: the masked detector must
  // ignore it (no anomaly), while an unmasked detector trips.
  MovementDetector masked(3, kHz, fast_config());
  MovementDetector plain(3, kHz, fast_config());
  Rng rng_a(21);
  Rng rng_b(21);
  feed(masked, rng_a, 25.0, 0.3);
  feed(plain, rng_b, 25.0, 0.3);
  ASSERT_TRUE(masked.calibrated());

  const std::vector<std::uint8_t> mask{1, 1, 0};
  std::vector<double> row(3);
  bool masked_anomalous = false;
  bool plain_anomalous = false;
  for (int t = 0; t < 40; ++t) {
    // Live streams dead-flat, stale stream oscillating wildly.  Once
    // the std window flushes its calibration residue the live stddevs
    // are exactly zero, so the masked s_t sits at 0 deterministically.
    row[0] = -60.0;
    row[1] = -60.0;
    row[2] = -60.0 + ((t % 2 == 0) ? 15.0 : -15.0);
    const MdState ms = masked.step(row, mask);
    if (t >= 12) masked_anomalous |= ms == MdState::kAnomalous;
    plain_anomalous |= plain.step(row) == MdState::kAnomalous;
  }
  EXPECT_FALSE(masked_anomalous);
  EXPECT_TRUE(plain_anomalous);
  EXPECT_DOUBLE_EQ(masked.last_live_fraction(), 2.0 / 3.0);
  EXPECT_EQ(masked.degraded_ticks(), 0u);
}

TEST(MovementDetectorTest, DegradedTickHoldsSumStd) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(23);
  feed(md, rng, 25.0, 0.5);
  ASSERT_TRUE(md.calibrated());
  const double before = md.last_sum_std();

  // Only 1 of 3 streams live: below min_live_fraction = 0.5, so s_t
  // holds and the degraded counter ticks even with an outrageous row.
  const std::vector<std::uint8_t> mask{1, 0, 0};
  const std::vector<double> row{-20.0, -20.0, -20.0};
  md.step(row, mask);
  EXPECT_EQ(md.last_sum_std(), before);
  EXPECT_EQ(md.degraded_ticks(), 1u);
  EXPECT_NEAR(md.last_live_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(MovementDetectorTest, MaskSizeMustMatchStreams) {
  MovementDetector md(3, kHz, fast_config());
  const std::vector<double> row(3, -60.0);
  const std::vector<std::uint8_t> short_mask{1, 1};
  EXPECT_THROW(md.step(row, short_mask), ContractViolation);
}

TEST(MovementDetectorTest, RejectsInvalidLiveFraction) {
  MovementDetectorConfig config = fast_config();
  config.min_live_fraction = 0.0;
  EXPECT_THROW(MovementDetector(3, kHz, config), ContractViolation);
  config.min_live_fraction = 1.5;
  EXPECT_THROW(MovementDetector(3, kHz, config), ContractViolation);
}

TEST(MovementDetectorTest, ProfileUpdatesDuringLongQuietPeriods) {
  MovementDetector md(3, kHz, fast_config());
  Rng rng(19);
  feed(md, rng, 30.0, 0.5);
  const double before = md.profile().threshold();
  // Drift the noise level down; the self-updating profile should follow.
  feed(md, rng, 120.0, 0.25);
  EXPECT_LT(md.profile().threshold(), before);
}

}  // namespace
}  // namespace fadewich::core
