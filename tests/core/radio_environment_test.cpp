#include "fadewich/core/radio_environment.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::core {
namespace {

/// Synthetic per-stream windows: class 0 perturbs stream 0, class 1
/// perturbs stream 1, class 2 perturbs stream 2.
std::vector<std::vector<double>> windows_for_class(int cls, Rng& rng) {
  std::vector<std::vector<double>> windows(3);
  for (int s = 0; s < 3; ++s) {
    const double sigma = (s == cls) ? 4.0 : 0.5;
    for (int i = 0; i < 24; ++i) {
      windows[static_cast<std::size_t>(s)].push_back(
          std::round(rng.normal(-60.0, sigma)));
    }
  }
  return windows;
}

/// The windows as one row-major block over `storage`.
WindowBlock pack(const std::vector<std::vector<double>>& windows,
                 std::vector<double>& storage) {
  const std::size_t rows = windows.front().size();
  storage.resize(rows * windows.size());
  for (std::size_t s = 0; s < windows.size(); ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      storage[r * windows.size() + s] = windows[s][r];
    }
  }
  return {storage, rows, windows.size()};
}

/// RE's features of per-stream windows (packed into a block).
std::vector<double> features_of(const RadioEnvironment& re,
                                const std::vector<std::vector<double>>& windows,
                                std::span<const double> validity = {}) {
  std::vector<double> storage;
  std::vector<double> out(windows.size() * kFeaturesPerStream);
  re.features_from(pack(windows, storage), validity, out);
  return out;
}

TEST(RadioEnvironmentTest, FeatureWidthMatchesConfig) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  Rng rng(3);
  const auto features = features_of(re, windows_for_class(0, rng));
  EXPECT_EQ(features.size(), 9u);  // 3 streams x 3 features
}

TEST(RadioEnvironmentTest, UntrainedClassifierRejectsQueries) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  EXPECT_FALSE(re.trained());
  EXPECT_THROW(re.classify({1.0, 2.0}), ContractViolation);
}

TEST(RadioEnvironmentTest, LearnsSyntheticSignatures) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  Rng rng(5);
  ml::Dataset data;
  for (int i = 0; i < 40; ++i) {
    for (int cls = 0; cls < 3; ++cls) {
      data.add(features_of(re, windows_for_class(cls, rng)), cls);
    }
  }
  re.train(data);
  EXPECT_TRUE(re.trained());

  std::size_t correct = 0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const int cls = i % 3;
    if (re.classify(features_of(re, windows_for_class(cls, rng))) ==
        cls) {
      ++correct;
    }
  }
  EXPECT_GE(static_cast<double>(correct) / trials, 0.9);
}

TEST(RadioEnvironmentTest, LowValidityStreamGetsZeroedFeatures) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  Rng rng(11);
  const auto windows = windows_for_class(0, rng);
  const std::vector<double> validity{1.0, 0.2, 1.0};  // stream 1 starved
  const auto masked = features_of(re, windows, validity);
  const auto plain = features_of(re, windows);
  ASSERT_EQ(masked.size(), plain.size());
  // Stream 1's block (features 3..5) is zeroed; the others untouched.
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (i >= 3 && i < 6) {
      EXPECT_DOUBLE_EQ(masked[i], 0.0) << "feature " << i;
    } else {
      EXPECT_DOUBLE_EQ(masked[i], plain[i]) << "feature " << i;
    }
  }
}

TEST(RadioEnvironmentTest, FullValidityMatchesPlainFeatures) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  Rng rng(13);
  const auto windows = windows_for_class(1, rng);
  const std::vector<double> validity{1.0, 1.0, 1.0};
  EXPECT_EQ(features_of(re, windows, validity), features_of(re, windows));
}

TEST(RadioEnvironmentTest, ClassifyDegradedDeclinesWhenStarved) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  Rng rng(15);
  std::vector<double> storage;
  // Untrained: always unavailable.
  EXPECT_FALSE(
      re.classify_degraded(pack(windows_for_class(0, rng), storage), {})
          .has_value());

  ml::Dataset data;
  for (int i = 0; i < 20; ++i) {
    for (int cls = 0; cls < 3; ++cls) {
      data.add(features_of(re, windows_for_class(cls, rng)), cls);
    }
  }
  re.train(data);

  // 1 of 3 live < min_live_stream_fraction = 0.5: unavailable.
  const std::vector<double> starved{1.0, 0.0, 0.0};
  EXPECT_FALSE(
      re.classify_degraded(pack(windows_for_class(0, rng), storage), starved)
          .has_value());

  // Fully valid: behaves exactly like classify().
  const std::vector<double> full{1.0, 1.0, 1.0};
  const auto windows = windows_for_class(2, rng);
  const auto label = re.classify_degraded(pack(windows, storage), full);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(*label, re.classify(features_of(re, windows)));
}

TEST(RadioEnvironmentTest, TrainRejectsEmptyDataset) {
  RadioEnvironment re(FeatureConfig{}, ml::SvmConfig{});
  EXPECT_THROW(re.train(ml::Dataset{}), ContractViolation);
}

}  // namespace
}  // namespace fadewich::core
