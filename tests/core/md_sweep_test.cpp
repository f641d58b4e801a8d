// Parameterized property sweeps over MD's configuration space.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/eval/window_matching.hpp"

namespace fadewich::core {
namespace {

constexpr double kHz = 5.0;

/// Synthetic run: quiet noise with three injected variance bursts of
/// lengths 2 s, 5 s and 9 s.  Returns every completed window.
std::vector<VariationWindow> windows_for(MovementDetectorConfig config,
                                         std::uint64_t seed) {
  MovementDetector md(4, kHz, config);
  Rng rng(seed);
  std::vector<double> row(4);
  std::vector<VariationWindow> windows;
  auto feed = [&](double seconds, double sigma) {
    for (int i = 0; i < static_cast<int>(seconds * kHz); ++i) {
      for (auto& v : row) v = rng.normal(-60.0, sigma);
      // A closing step never extends the window, so the one reported
      // before it is the closed window.
      const std::optional<VariationWindow> open = md.current_window();
      md.step(row);
      const std::optional<VariationWindow> now = md.current_window();
      if (open && (!now || now->begin != open->begin)) {
        windows.push_back(*open);
      }
    }
  };
  feed(40.0, 0.5);
  feed(2.0, 5.0);
  feed(20.0, 0.5);
  feed(5.0, 5.0);
  feed(20.0, 0.5);
  feed(9.0, 5.0);
  feed(20.0, 0.5);
  if (md.current_window()) windows.push_back(*md.current_window());
  return windows;
}

MovementDetectorConfig sweep_config() {
  MovementDetectorConfig config;
  config.calibration = 30.0;
  config.profile.capacity = 150;
  config.profile.batch_size = 50;
  return config;
}

// Property 1: the number of windows surviving the duration filter is
// non-increasing in t_delta, for any std-window size.
class TDeltaMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(TDeltaMonotonicity, FilteredCountIsMonotone) {
  MovementDetectorConfig config = sweep_config();
  config.std_window = GetParam();
  const auto windows = windows_for(config, 7);
  const TickRate rate(kHz);
  std::size_t prev = windows.size() + 1;
  for (double t_delta = 1.0; t_delta <= 10.0; t_delta += 0.5) {
    const auto kept =
        eval::filter_by_duration(windows, rate, t_delta).size();
    EXPECT_LE(kept, prev) << "t_delta " << t_delta;
    prev = kept;
  }
}

INSTANTIATE_TEST_SUITE_P(StdWindows, TDeltaMonotonicity,
                         ::testing::Values(1.0, 2.0, 3.0));

// Property 2: the three bursts are found across seeds — the long burst
// always yields a window of at least its own length.
class BurstDetection : public ::testing::TestWithParam<int> {};

TEST_P(BurstDetection, LongBurstAlwaysDetected) {
  const auto windows = windows_for(
      sweep_config(), static_cast<std::uint64_t>(GetParam()));
  double longest = 0.0;
  for (const auto& w : windows) {
    longest = std::max(
        longest, static_cast<double>(w.end - w.begin + 1) / kHz);
  }
  EXPECT_GE(longest, 8.0);
  EXPECT_LE(longest, 13.0);  // 9 s burst + std-window tail
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstDetection, ::testing::Range(1, 9));

// Property 3: a stricter alpha (smaller tail) raises the threshold.
class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, ThresholdDecreasesWithAlpha) {
  MovementDetectorConfig config = sweep_config();
  config.profile.alpha = GetParam();
  MovementDetector md(4, kHz, config);
  Rng rng(3);
  std::vector<double> row(4);
  for (int i = 0; i < static_cast<int>(35.0 * kHz); ++i) {
    for (auto& v : row) v = rng.normal(-60.0, 0.5);
    md.step(row);
  }
  ASSERT_TRUE(md.calibrated());

  MovementDetectorConfig looser = sweep_config();
  looser.profile.alpha = GetParam() * 4.0;
  MovementDetector md_loose(4, kHz, looser);
  Rng rng2(3);
  for (int i = 0; i < static_cast<int>(35.0 * kHz); ++i) {
    for (auto& v : row) v = rng2.normal(-60.0, 0.5);
    md_loose.step(row);
  }
  EXPECT_GT(md.profile().threshold(), md_loose.profile().threshold());
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
}  // namespace fadewich::core
