#include "fadewich/stats/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::stats {
namespace {

TEST(HistogramTest, RejectsInvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), ContractViolation);
}

TEST(HistogramTest, BinAssignment) {
  Histogram h(0.0, 4.0, 4);
  EXPECT_EQ(h.bin_of(0.5), 0u);
  EXPECT_EQ(h.bin_of(1.5), 1u);
  EXPECT_EQ(h.bin_of(3.9), 3u);
  // The top edge belongs to the last bin.
  EXPECT_EQ(h.bin_of(4.0), 3u);
}

TEST(HistogramTest, OutOfRangeValuesClampIntoBoundaryBins) {
  Histogram h(0.0, 4.0, 4);
  EXPECT_EQ(h.bin_of(-100.0), 0u);
  EXPECT_EQ(h.bin_of(100.0), 3u);
}

TEST(HistogramTest, ClampedOutliersAreStillTallied) {
  // Outliers fold into the boundary bins, but the fold is not silent:
  // underflow()/overflow() record it.
  Histogram h(0.0, 4.0, 4);
  h.add(-100.0);
  h.add(2.0);
  h.add(100.0);
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, EntropyPinnedForOutOfRangeInput) {
  // Half in-range at 0.5, half far below the range: the clamp merges
  // everything into bin 0, so the entropy is 0.
  const std::vector<double> xs{0.5, 0.5, -50.0, -50.0};

  Histogram clamped(0.0, 4.0, 4);
  clamped.add_all(xs);
  EXPECT_DOUBLE_EQ(clamped.entropy(), 0.0);
  EXPECT_EQ(clamped.underflow(), 2u);  // ...but the clamp is visible
}

TEST(HistogramTest, CountsAccumulate) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(1.5);
  h.add(9.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(HistogramTest, BinCenters) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_THROW(h.bin_center(5), ContractViolation);
}

TEST(HistogramTest, ProbabilitiesSumToOne) {
  Histogram h(0.0, 1.0, 8);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) / 10.0);
  const auto p = h.probabilities();
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, ProbabilitiesRequireData) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW(h.probabilities(), ContractViolation);
  EXPECT_THROW(h.entropy(), ContractViolation);
}

TEST(HistogramTest, EntropyOfSingleBinIsZero) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 10; ++i) h.add(0.1);
  EXPECT_DOUBLE_EQ(h.entropy(), 0.0);
}

TEST(HistogramTest, EntropyOfUniformBinsIsLogN) {
  Histogram h(0.0, 4.0, 4);
  for (int b = 0; b < 4; ++b) {
    h.add(static_cast<double>(b) + 0.5);
    h.add(static_cast<double>(b) + 0.5);
  }
  EXPECT_NEAR(h.entropy(), std::log(4.0), 1e-12);
}

TEST(HistogramTest, FromDataSpansMinMax) {
  const std::vector<double> xs{-2.0, 0.0, 6.0};
  const Histogram h = Histogram::from_data(xs, 4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bin_of(-2.0), 0u);
  EXPECT_EQ(h.bin_of(6.0), 3u);
}

TEST(HistogramTest, FromDataHandlesConstantInput) {
  const std::vector<double> xs{5.0, 5.0, 5.0};
  const Histogram h = Histogram::from_data(xs, 16);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.entropy(), 0.0);
}

TEST(HistogramTest, FromDataRejectsEmpty) {
  const std::vector<double> xs;
  EXPECT_THROW(Histogram::from_data(xs, 4), ContractViolation);
}

TEST(ValueEntropyTest, ConstantWindowHasZeroEntropy) {
  const std::vector<double> xs{-70.0, -70.0, -70.0};
  EXPECT_DOUBLE_EQ(value_entropy(xs), 0.0);
}

TEST(ValueEntropyTest, UniformDistinctValues) {
  const std::vector<double> xs{-70.0, -71.0, -72.0, -73.0};
  EXPECT_NEAR(value_entropy(xs), std::log(4.0), 1e-12);
}

TEST(ValueEntropyTest, SkewedDistributionBetweenZeroAndLogN) {
  const std::vector<double> xs{-70.0, -70.0, -70.0, -71.0};
  const double h = value_entropy(xs);
  EXPECT_GT(h, 0.0);
  EXPECT_LT(h, std::log(2.0));
}

TEST(ValueEntropyTest, RejectsEmpty) {
  const std::vector<double> xs;
  EXPECT_THROW(value_entropy(xs), ContractViolation);
}

}  // namespace
}  // namespace fadewich::stats
