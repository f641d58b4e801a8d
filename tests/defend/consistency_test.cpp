#include "fadewich/defend/consistency.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/rf/pathloss.hpp"

namespace fadewich::defend {
namespace {

ConsistencyConfig tight_config() {
  ConsistencyConfig config;  // library defaults; tests rely on:
  EXPECT_EQ(config.suspicion_threshold, 16u);
  EXPECT_EQ(config.bound_weight, 8u);
  EXPECT_EQ(config.stuck_weight, 16u);
  return config;
}

TEST(ConsistencyTest, RequiresTwoDevices) {
  EXPECT_THROW(ConsistencyChecker(1, ConsistencyConfig{}), Error);
}

TEST(ConsistencyTest, GeometryFreeCheckerOnlyEnforcesTheFloor) {
  ConsistencyChecker checker(2, tight_config());
  EXPECT_TRUE(std::isinf(checker.static_bound_dbm(0)));
  EXPECT_EQ(checker.check(0, 0, 0), SampleVerdict::kOk);  // no bound
  EXPECT_EQ(checker.check(0, -120, 1), SampleVerdict::kImpossible);
}

TEST(ConsistencyTest, GeometryBoundsFollowThePathLossModel) {
  // Two devices 1 m apart: default model loses 40 dB at 1 m, so with
  // tx_power 0 the ceiling is -40 + margin_up.
  const std::vector<rf::Point> positions = {{0.0, 0.0}, {1.0, 0.0}};
  const ConsistencyConfig config = tight_config();
  ConsistencyChecker checker(2, config, positions, rf::PathLossConfig{},
                             0.0);
  EXPECT_NEAR(checker.static_bound_dbm(0), -40.0 + config.margin_up_db,
              1e-9);
  EXPECT_EQ(checker.check(0, -10, 0), SampleVerdict::kImpossible);
  EXPECT_EQ(checker.check(0, -50, 1), SampleVerdict::kOk);
}

TEST(ConsistencyTest, RepeatedImpossibleSamplesQuarantineTheLink) {
  ConsistencyChecker checker(2, tight_config());
  // bound_weight 8, threshold 16: two impossible samples cross it.
  EXPECT_EQ(checker.check(0, -128, 0), SampleVerdict::kImpossible);
  EXPECT_FALSE(checker.quarantined(0, 1));
  EXPECT_EQ(checker.check(0, -128, 1), SampleVerdict::kImpossible);
  EXPECT_TRUE(checker.quarantined(0, 2));
  EXPECT_EQ(checker.quarantines(), 1u);
  EXPECT_EQ(checker.quarantined_count(2), 1u);
  // Even a plausible sample is refused while quarantined.
  EXPECT_EQ(checker.check(0, -50, 2), SampleVerdict::kQuarantined);
  // The sibling link is unaffected.
  EXPECT_EQ(checker.check(1, -50, 2), SampleVerdict::kOk);
}

TEST(ConsistencyTest, CleanTicksDecaySuspicion) {
  ConsistencyChecker checker(2, tight_config());
  EXPECT_EQ(checker.check(0, -128, 0), SampleVerdict::kImpossible);
  Tick now = 1;
  for (; now <= 8; ++now) {
    // Vary the value so the run/variance checks stay quiet.
    const auto v = static_cast<std::int8_t>(-50 - now % 3);
    EXPECT_EQ(checker.check(0, v, now), SampleVerdict::kOk);
  }
  // Suspicion has fully decayed: one more violation stays below the
  // threshold instead of tipping the link over.
  EXPECT_EQ(checker.check(0, -128, now), SampleVerdict::kImpossible);
  EXPECT_FALSE(checker.quarantined(0, now + 1));
}

TEST(ConsistencyTest, FrozenRunIsConclusive) {
  const ConsistencyConfig config = tight_config();
  ConsistencyChecker checker(2, config);
  const Tick run = static_cast<Tick>(config.stuck_run_ticks);
  for (Tick t = 0; t < run - 1; ++t) {
    ASSERT_EQ(checker.check(0, -47, t), SampleVerdict::kOk) << t;
  }
  // stuck_weight == threshold: the trigger quarantines immediately.
  EXPECT_EQ(checker.check(0, -47, run - 1), SampleVerdict::kStuck);
  EXPECT_TRUE(checker.quarantined(0, run));
}

TEST(ConsistencyTest, HardVarianceEscalatesFasterThanSoft) {
  const ConsistencyConfig config = tight_config();
  ConsistencyChecker checker(2, config);
  // Alternate +/-30 dB around the mean: windowed std ~30, far over the
  // hard cap, so each flagged sample carries bound_weight.
  Tick now = 0;
  SampleVerdict verdict = SampleVerdict::kOk;
  std::size_t flagged = 0;
  while (!checker.quarantined(0, now) && now < 100) {
    const std::int8_t v = (now % 2 == 0) ? -30 : -90;
    verdict = checker.check(0, v, now);
    if (verdict == SampleVerdict::kExcessVariance) ++flagged;
    ++now;
  }
  ASSERT_TRUE(checker.quarantined(0, now));
  // The window must fill (25 samples) before variance can flag, and the
  // hard cap needs only two flags (2 x 8 >= 16) to quarantine.
  EXPECT_EQ(flagged, 2u);
  EXPECT_EQ(now, static_cast<Tick>(config.window_ticks) + 1);
}

TEST(ConsistencyTest, QuarantineSlidesUnderASustainedAttack) {
  const ConsistencyConfig config = tight_config();
  ConsistencyChecker checker(2, config);
  checker.check(0, -128, 0);
  checker.check(0, -128, 1);
  ASSERT_TRUE(checker.quarantined(0, 2));
  // Quarantined since tick 1; a violation at tick 400 re-arms the full
  // period, so the link is still out at 1 + 600 and beyond.
  EXPECT_EQ(checker.check(0, -128, 400), SampleVerdict::kQuarantined);
  EXPECT_TRUE(checker.quarantined(0, 1 + config.quarantine_ticks));
  EXPECT_TRUE(checker.quarantined(0, 400 + config.quarantine_ticks - 1));
  EXPECT_FALSE(checker.quarantined(0, 400 + config.quarantine_ticks));
}

TEST(ConsistencyTest, CleanStretchReleasesTheQuarantine) {
  const ConsistencyConfig config = tight_config();
  ConsistencyChecker checker(2, config);
  checker.check(0, -128, 0);
  checker.check(0, -128, 1);
  ASSERT_TRUE(checker.quarantined(0, 2));
  // Clean samples through the whole quarantine: refused but harmless.
  const Tick release = 1 + config.quarantine_ticks;
  for (Tick t = 2; t < release; ++t) {
    const auto v = static_cast<std::int8_t>(-50 - t % 3);
    ASSERT_EQ(checker.check(0, v, t), SampleVerdict::kQuarantined) << t;
  }
  // At expiry the window holds only clean data: service resumes.
  EXPECT_EQ(checker.check(0, -50, release), SampleVerdict::kOk);
  EXPECT_FALSE(checker.quarantined(0, release));
  EXPECT_EQ(checker.quarantines(), 1u);  // one entry, slid, released
}

}  // namespace
}  // namespace fadewich::defend
