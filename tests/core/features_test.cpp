#include "fadewich/core/features.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/stats/autocorrelation.hpp"
#include "fadewich/stats/descriptive.hpp"
#include "fadewich/stats/histogram.hpp"
#include "oracle/features.hpp"

namespace fadewich::core {
namespace {

using oracle::block_features;

TEST(FeaturesTest, DefaultConfigHasThreePerStream) {
  const auto out = block_features({{-60.0, -61.0, -62.0}}, FeatureConfig{});
  EXPECT_EQ(out.size(), kFeaturesPerStream);
  EXPECT_EQ(kFeaturesPerStream, 3u);
}

TEST(FeaturesTest, StreamFeaturesMatchStatsPrimitives) {
  const std::vector<double> window{-60.0, -61.0, -60.0, -62.0, -61.0};
  const auto out = block_features({window}, FeatureConfig{});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], stats::variance(window));
  EXPECT_DOUBLE_EQ(out[1], stats::value_entropy(window));
  EXPECT_DOUBLE_EQ(out[2], stats::autocorrelation(window, 1));
}

TEST(FeaturesTest, ExtractConcatenatesStreamsInOrder) {
  const std::vector<std::vector<double>> windows{
      {-60.0, -61.0, -60.0},
      {-70.0, -70.0, -70.0},
  };
  const auto features = block_features(windows, FeatureConfig{});
  ASSERT_EQ(features.size(), 6u);
  EXPECT_DOUBLE_EQ(features[0], stats::variance(windows[0]));
  EXPECT_DOUBLE_EQ(features[3], stats::variance(windows[1]));
  // Constant stream: variance, entropy and autocorrelation all zero.
  EXPECT_DOUBLE_EQ(features[3], 0.0);
  EXPECT_DOUBLE_EQ(features[4], 0.0);
  EXPECT_DOUBLE_EQ(features[5], 0.0);
}

TEST(FeaturesTest, ConfigurableAutocorrelationLag) {
  const std::vector<double> window{1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  FeatureConfig config;
  config.autocorr_lag = 2;
  const auto out = block_features({window}, config);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2], stats::autocorrelation(window, 2));
  EXPECT_GT(out[2], 0.5);
}

TEST(FeaturesTest, WindowMustExceedLag) {
  EXPECT_THROW(block_features({{1.0}}, FeatureConfig{}), ContractViolation);
}

TEST(FeaturesTest, ExtractRejectsEmptyStreamList) {
  EXPECT_THROW(block_features({}, FeatureConfig{}), ContractViolation);
}

TEST(FeaturesTest, FeatureNamesMatchPaperConvention) {
  const std::vector<std::pair<std::size_t, std::size_t>> pairs{
      {8, 1},  // d9 -> d2
      {0, 2},  // d1 -> d3
  };
  const auto names = feature_names(pairs);
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "d9-d2-var");
  EXPECT_EQ(names[1], "d9-d2-ent");
  EXPECT_EQ(names[2], "d9-d2-ac");
  EXPECT_EQ(names[3], "d1-d3-var");
}

// The block extraction computes every column with the SIMD column
// kernels; the contract is that it matches the per-stream scalar
// statistics bit-for-bit.  Stream counts straddle the vector widths
// (scalar tails included).
TEST(FeaturesTest, BatchedPathMatchesPerStreamScalarPath) {
  Rng rng(73);
  const FeatureConfig config;
  for (std::size_t streams : {1u, 2u, 3u, 4u, 5u, 9u, 17u}) {
    std::vector<std::vector<double>> windows(streams);
    for (auto& w : windows) {
      w.resize(25);
      for (double& v : w) v = rng.normal(-60.0, 2.5);
    }
    std::vector<double> scalar_out;
    for (const auto& w : windows) {
      oracle::append_stream_features(w, config, scalar_out);
    }
    const std::vector<double> batched = block_features(windows, config);
    ASSERT_EQ(batched.size(), scalar_out.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], scalar_out[i])
          << "streams " << streams << " idx " << i;
    }
  }
}

// A constant window has zero variance; the batched autocorrelation must
// use the same 0/0 -> 0 convention as stats::autocorrelation.
TEST(FeaturesTest, BatchedPathHandlesZeroVarianceStreams) {
  std::vector<std::vector<double>> windows{
      std::vector<double>(10, -61.0),          // constant
      {-60, -61, -62, -60, -61, -62, -60, -61, -62, -60}};
  const FeatureConfig config;
  std::vector<double> scalar_out;
  for (const auto& w : windows) {
    oracle::append_stream_features(w, config, scalar_out);
  }
  const std::vector<double> batched = block_features(windows, config);
  ASSERT_EQ(batched.size(), scalar_out.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], scalar_out[i]) << "idx " << i;
  }
}

}  // namespace
}  // namespace fadewich::core
