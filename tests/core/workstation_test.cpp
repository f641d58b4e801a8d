#include "fadewich/core/workstation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::core {
namespace {

constexpr Seconds kTid = 5.0;
constexpr Seconds kTss = 3.0;

WorkstationSession make_session() { return {kTid, kTss}; }

// Test-side transition log: poll() after each session call appends the
// transition that call made.  The calls recorded here make at most one.
struct TransitionRecorder {
  std::vector<SessionTransition> log;

  void poll(const WorkstationSession& session) {
    if (session.transition_count() == log.size()) return;
    ASSERT_EQ(session.transition_count(), log.size() + 1);
    log.push_back(session.last_transition());
  }
};

TEST(WorkstationSessionTest, StartsActive) {
  const auto session = make_session();
  EXPECT_EQ(session.state(), SessionState::kActive);
  EXPECT_EQ(session.transition_count(), 0u);
}

TEST(WorkstationSessionTest, RejectsInvalidTimings) {
  EXPECT_THROW(WorkstationSession(0.0, 1.0), ContractViolation);
  EXPECT_THROW(WorkstationSession(1.0, 0.0), ContractViolation);
}

TEST(WorkstationSessionTest, AlertArmsOnlyBeforeTidEdge) {
  auto session = make_session();
  session.on_alert(10.0, 2.0);  // idle 2 < tID: arms
  EXPECT_EQ(session.state(), SessionState::kAlert);

  auto late = make_session();
  late.on_alert(10.0, 8.0);  // idle edge already passed: no alert
  EXPECT_EQ(late.state(), SessionState::kActive);
}

TEST(WorkstationSessionTest, AlertEscalatesToScreenSaverAtTid) {
  auto session = make_session();
  session.on_alert(10.0, 2.0);
  session.tick(11.0, 3.0);
  EXPECT_EQ(session.state(), SessionState::kAlert);
  session.tick(13.0, 5.0);  // idle reached tID
  EXPECT_EQ(session.state(), SessionState::kScreenSaver);
}

TEST(WorkstationSessionTest, ScreenSaverLocksAfterGrace) {
  auto session = make_session();
  session.on_alert(10.0, 4.0);
  session.tick(11.0, 5.0);
  ASSERT_EQ(session.state(), SessionState::kScreenSaver);
  session.tick(12.0, 6.0);
  EXPECT_EQ(session.state(), SessionState::kScreenSaver);
  session.tick(14.0, 8.0);  // idle = tID + tss
  EXPECT_EQ(session.state(), SessionState::kLocked);
}

TEST(WorkstationSessionTest, InputCancelsAlertAndScreenSaver) {
  auto session = make_session();
  session.on_alert(10.0, 2.0);
  session.on_input(10.5);
  EXPECT_EQ(session.state(), SessionState::kActive);

  session.on_alert(20.0, 4.0);
  session.tick(21.0, 5.0);
  ASSERT_EQ(session.state(), SessionState::kScreenSaver);
  session.on_input(21.5);
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(WorkstationSessionTest, UnrefreshedAlertDecays) {
  auto session = make_session();
  session.on_alert(10.0, 2.0);
  // No refresh for longer than the decay horizon, idle still short.
  session.tick(12.0, 4.0);
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(WorkstationSessionTest, RefreshedAlertSurvives) {
  auto session = make_session();
  session.on_alert(10.0, 2.0);
  session.on_alert(11.0, 3.0);
  session.tick(11.2, 3.2);
  EXPECT_EQ(session.state(), SessionState::kAlert);
}

TEST(WorkstationSessionTest, DeauthenticateLocksImmediately) {
  auto session = make_session();
  session.on_deauthenticate(5.0);
  EXPECT_EQ(session.state(), SessionState::kLocked);
  // Idempotent: a second deauth does not add transitions.
  const auto count = session.transition_count();
  session.on_deauthenticate(6.0);
  EXPECT_EQ(session.transition_count(), count);
  EXPECT_DOUBLE_EQ(session.last_transition().time, 5.0);
}

TEST(WorkstationSessionTest, ReloginRestoresActive) {
  auto session = make_session();
  session.on_deauthenticate(5.0);
  session.on_input(30.0);  // the user re-authenticates
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(WorkstationSessionTest, TransitionsAreTimestampedInOrder) {
  auto session = make_session();
  TransitionRecorder recorder;
  session.on_alert(10.0, 2.0);
  recorder.poll(session);
  session.tick(13.0, 5.0);
  recorder.poll(session);
  session.tick(16.0, 8.0);
  recorder.poll(session);
  const auto& log = recorder.log;
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].to, SessionState::kAlert);
  EXPECT_DOUBLE_EQ(log[0].time, 10.0);
  EXPECT_EQ(log[1].to, SessionState::kScreenSaver);
  EXPECT_DOUBLE_EQ(log[1].time, 13.0);
  EXPECT_EQ(log[2].to, SessionState::kLocked);
  EXPECT_DOUBLE_EQ(log[2].time, 16.0);
}

TEST(WorkstationSessionTest, CaseBTimingMatchesPaper) {
  // A departed user whose last input was at t = 0: alert during the
  // variation window, screensaver at idle = 5, lock at idle = 8 — the
  // paper's t + tID + tss.
  auto session = make_session();
  const Seconds dt = 0.2;
  for (Seconds t = 4.5; t <= 9.0; t += dt) {
    session.on_alert(t, t);  // idle equals elapsed time (no input)
    session.tick(t, t);
    if (session.state() == SessionState::kLocked) break;
  }
  ASSERT_EQ(session.state(), SessionState::kLocked);
  // Lock time = 8.0 +- one tick.
  EXPECT_NEAR(session.last_transition().time, kTid + kTss, 0.21);
}

TEST(WorkstationSessionTest, RestoreRestartsTheTransitionCount) {
  auto session = make_session();
  session.on_deauthenticate(5.0);
  session.on_input(30.0);
  ASSERT_EQ(session.transition_count(), 2u);
  EXPECT_EQ(session.last_transition().to, SessionState::kActive);
  session.restore(session.snapshot());
  EXPECT_EQ(session.transition_count(), 0u);
  EXPECT_EQ(session.state(), SessionState::kActive);
}

}  // namespace
}  // namespace fadewich::core
