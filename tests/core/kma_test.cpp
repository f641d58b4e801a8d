#include "fadewich/core/kma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fadewich/common/error.hpp"

namespace fadewich::core {
namespace {

TEST(KmaTest, RejectsZeroWorkstations) {
  EXPECT_THROW(KeyboardMouseActivity(0), ContractViolation);
}

TEST(KmaTest, NeverSeenWorkstationIsInfinitelyIdle) {
  KeyboardMouseActivity kma(2);
  EXPECT_TRUE(std::isinf(kma.idle_time(0, 100.0)));
  EXPECT_TRUE(kma.idle_for(0, 100.0, 1e9));
}

TEST(KmaTest, IdleTimeIsSinceLastInput) {
  KeyboardMouseActivity kma(2);
  kma.record_input(0, 10.0);
  EXPECT_DOUBLE_EQ(kma.idle_time(0, 15.0), 5.0);
  kma.record_input(0, 14.0);
  EXPECT_DOUBLE_EQ(kma.idle_time(0, 15.0), 1.0);
}

TEST(KmaTest, OutOfOrderInputsKeepTheLatest) {
  KeyboardMouseActivity kma(1);
  kma.record_input(0, 20.0);
  kma.record_input(0, 10.0);  // late-arriving old report
  EXPECT_DOUBLE_EQ(kma.idle_time(0, 25.0), 5.0);
}

TEST(KmaTest, IdleSetSelectsByThreshold) {
  KeyboardMouseActivity kma(3);
  kma.record_input(0, 10.0);  // idle 5 at t=15
  kma.record_input(1, 14.0);  // idle 1
  kma.record_input(2, 14.9);  // idle 0.1
  EXPECT_TRUE(kma.idle_for(0, 15.0, 1.0));
  EXPECT_TRUE(kma.idle_for(1, 15.0, 1.0));
  EXPECT_FALSE(kma.idle_for(2, 15.0, 1.0));
  EXPECT_TRUE(kma.idle_for(0, 15.0, 4.5));
  EXPECT_FALSE(kma.idle_for(1, 15.0, 4.5));
  EXPECT_FALSE(kma.idle_for(2, 15.0, 4.5));
}

TEST(KmaTest, IdleSetThresholdIsInclusive) {
  KeyboardMouseActivity kma(1);
  kma.record_input(0, 10.0);
  // Exactly s seconds idle belongs to S(s), matching "idle between t-s
  // and t".
  EXPECT_TRUE(kma.idle_for(0, 14.5, 4.5));
  EXPECT_FALSE(kma.idle_for(0, 14.4, 4.5));
}

TEST(KmaTest, IndependentWorkstations) {
  KeyboardMouseActivity kma(2);
  kma.record_input(0, 50.0);
  EXPECT_DOUBLE_EQ(kma.idle_time(0, 60.0), 10.0);
  EXPECT_TRUE(std::isinf(kma.idle_time(1, 60.0)));
}

TEST(KmaTest, RejectsOutOfRangeWorkstation) {
  KeyboardMouseActivity kma(2);
  EXPECT_THROW(kma.record_input(2, 1.0), ContractViolation);
  EXPECT_THROW(kma.idle_time(2, 1.0), ContractViolation);
}

}  // namespace
}  // namespace fadewich::core
