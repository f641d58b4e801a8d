#include <gtest/gtest.h>

#include <vector>

#include "fadewich/eval/security.hpp"

namespace fadewich::eval {
namespace {

TEST(OutcomeTallyTest, EmptyInputIsAllZero) {
  const OutcomeTally tally = tally_outcomes({});
  EXPECT_EQ(tally.leave_events, 0u);
  EXPECT_EQ(tally.case_a + tally.case_b + tally.case_c, 0u);
  EXPECT_EQ(tally.mean_delay, 0.0);
  EXPECT_EQ(tally.p90_delay, 0.0);
}

TEST(OutcomeTallyTest, SingleLeaveIsItsOwnMeanAndP90) {
  const std::vector<LeaveOutcome> one{{0, DeauthCase::kMisclassified, 8.0}};
  const OutcomeTally tally = tally_outcomes(one);
  EXPECT_EQ(tally.leave_events, 1u);
  EXPECT_EQ(tally.case_a, 0u);
  EXPECT_EQ(tally.case_b, 1u);
  EXPECT_EQ(tally.case_c, 0u);
  EXPECT_EQ(tally.mean_delay, 8.0);
  EXPECT_EQ(tally.p90_delay, 8.0);
}

TEST(OutcomeTallyTest, TenLeavesCountCasesAndTakeTheNinthSortedDelay) {
  // Delays 1..10 out of order; p90 is sorted[ceil(0.9 * 10) - 1] = 9.
  const std::vector<LeaveOutcome> ten{
      {0, DeauthCase::kCorrect, 3.0},       {1, DeauthCase::kCorrect, 1.0},
      {2, DeauthCase::kMissed, 10.0},       {3, DeauthCase::kCorrect, 2.0},
      {4, DeauthCase::kMisclassified, 8.0}, {5, DeauthCase::kCorrect, 4.0},
      {6, DeauthCase::kMisclassified, 9.0}, {7, DeauthCase::kCorrect, 5.0},
      {8, DeauthCase::kCorrect, 6.0},       {9, DeauthCase::kMisclassified, 7.0},
  };
  const OutcomeTally tally = tally_outcomes(ten);
  EXPECT_EQ(tally.leave_events, 10u);
  EXPECT_EQ(tally.case_a, 6u);
  EXPECT_EQ(tally.case_b, 3u);
  EXPECT_EQ(tally.case_c, 1u);
  EXPECT_DOUBLE_EQ(tally.mean_delay, 5.5);
  EXPECT_EQ(tally.p90_delay, 9.0);
}

}  // namespace
}  // namespace fadewich::eval
