// Wireless physical attacks against the *system* (Section V-C): a
// jammer can only add fluctuation, so MD sees a permanent variation
// window.  FADEWICH degrades fail-secure: typing users are unaffected,
// while any user who leaves during the jam is still locked out via the
// Rule 2 alert path — the adversary cannot use jamming to keep a
// departed session open.
#include "fadewich/core/system.hpp"

#include <gtest/gtest.h>

#include <set>

#include "synthetic_harness.hpp"

namespace fadewich::core {
namespace {

using testing::Harness;

std::set<std::size_t> all_streams() { return {0, 1, 2, 3}; }

class PhysicalAttackTest : public ::testing::Test {};

TEST_F(PhysicalAttackTest, JammingOnsetIsDetectedAsAnomaly) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());

  // Broadband jamming: every stream gets burst-level variance.
  const auto results = h.advance(6.0, {0, 1}, all_streams());
  bool anomalous = false;
  for (const auto& r : results) {
    anomalous = anomalous || r.md_state == MdState::kAnomalous;
  }
  EXPECT_TRUE(anomalous);
  EXPECT_EQ(h.system().controller().state(), ControlState::kNoisy);
}

TEST_F(PhysicalAttackTest, JammingDoesNotLockTypingUsers) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());

  // A long jam while both users keep working: their input keeps
  // cancelling alerts, so neither session is lost (usability holds).
  h.advance(40.0, {0, 1}, all_streams());
  EXPECT_NE(h.system().session(0).state(), SessionState::kLocked);
  EXPECT_NE(h.system().session(1).state(), SessionState::kLocked);
}

TEST_F(PhysicalAttackTest, LeavingDuringJamStillLocksTheVictim) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());

  // The adversary jams to blind RE, then the victim (user 0) walks out.
  h.advance(10.0, {0, 1}, all_streams());  // jam, everyone present
  h.advance(20.0, {1}, all_streams());     // victim gone, jam continues
  // Rule 2 escalates the idle workstation to the screensaver lock even
  // though RE cannot attribute anything during the jam.
  EXPECT_EQ(h.system().session(0).state(), SessionState::kLocked);
  EXPECT_NE(h.system().session(1).state(), SessionState::kLocked);
}

TEST_F(PhysicalAttackTest, LockHappensWithinSecondsOfLeaving) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());

  h.advance(10.0, {0, 1}, all_streams());
  const Seconds leave_time = h.now();
  h.advance(20.0, {1}, all_streams());
  const WorkstationSession& session = h.system().session(0);
  ASSERT_GT(session.transition_count(), 0u);
  const SessionTransition& last = session.last_transition();
  ASSERT_EQ(last.to, SessionState::kLocked);
  // tID + tss = 8 s after the last input, plus at most one input period.
  EXPECT_LT(last.time - leave_time, 10.0);
}

}  // namespace
}  // namespace fadewich::core
