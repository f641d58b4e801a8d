#include "oracle/rolling_window.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::stats {
namespace {

TEST(RollingWindowTest, RejectsZeroCapacity) {
  EXPECT_THROW(RollingWindow(0), ContractViolation);
}

TEST(RollingWindowTest, StartsEmpty) {
  RollingWindow w(4);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.capacity(), 4u);
  EXPECT_FALSE(w.full());
}

TEST(RollingWindowTest, QueriesOnEmptyWindowThrow) {
  RollingWindow w(4);
  EXPECT_THROW(w.mean(), ContractViolation);
  EXPECT_THROW(w.variance(), ContractViolation);
}

TEST(RollingWindowTest, MeanOfPartialWindow) {
  RollingWindow w(4);
  w.push(2.0);
  w.push(4.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_EQ(w.size(), 2u);
}

TEST(RollingWindowTest, EvictsOldestWhenFull) {
  RollingWindow w(3);
  w.push(1.0);
  w.push(2.0);
  w.push(3.0);
  EXPECT_TRUE(w.full());
  w.push(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  const auto values = w.values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 2.0);
  EXPECT_DOUBLE_EQ(values[1], 3.0);
  EXPECT_DOUBLE_EQ(values[2], 10.0);
}

TEST(RollingWindowTest, VarianceOfConstantIsZero) {
  RollingWindow w(5);
  for (int i = 0; i < 20; ++i) w.push(7.5);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
}

TEST(RollingWindowTest, MatchesBatchStatisticsAfterWrap) {
  Rng rng(17);
  RollingWindow w(16);
  for (int i = 0; i < 100; ++i) w.push(rng.normal(3.0, 2.0));
  const auto values = w.values();
  EXPECT_NEAR(w.mean(), mean(values), 1e-9);
  EXPECT_NEAR(w.variance(), variance(values), 1e-9);
}

TEST(RollingWindowTest, ClearResetsContentsButNotCapacity) {
  RollingWindow w(3);
  w.push(1.0);
  w.push(2.0);
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.capacity(), 3u);
  w.push(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(RollingWindowTest, ValuesReturnsArrivalOrderBeforeWrap) {
  RollingWindow w(5);
  w.push(1.0);
  w.push(2.0);
  w.push(3.0);
  const auto values = w.values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[2], 3.0);
}

TEST(RollingWindowTest, LongStreamStaysNumericallyAccurate) {
  // Push far past the refresh interval with an offset-heavy signal; the
  // running sums must not drift from the batch-computed truth.
  Rng rng(23);
  RollingWindow w(32);
  for (int i = 0; i < 200000; ++i) {
    w.push(1.0e6 + rng.normal(0.0, 0.5));
  }
  const auto values = w.values();
  EXPECT_NEAR(w.variance(), variance(values), 1e-3);
}

// Property sweep: window statistics equal batch statistics for many
// (capacity, signal) combinations.
class RollingWindowProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RollingWindowProperty, AgreesWithBatchComputation) {
  const auto [capacity, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  RollingWindow w(capacity);
  for (int i = 0; i < 300; ++i) {
    w.push(rng.uniform(-50.0, 50.0));
    const auto values = w.values();
    ASSERT_EQ(values.size(), w.size());
    EXPECT_NEAR(w.mean(), mean(values), 1e-8);
    EXPECT_NEAR(w.variance(), variance(values), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RollingWindowProperty,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 64),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace fadewich::stats
