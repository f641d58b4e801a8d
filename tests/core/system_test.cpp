// End-to-end test of the online FadewichSystem on synthetic streams: the
// full training (auto-labeled) -> online (deauthentication) lifecycle,
// without the RF simulator.
#include "fadewich/core/system.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fadewich/common/error.hpp"
#include "fadewich/persist/snapshot.hpp"
#include "synthetic_harness.hpp"

namespace fadewich::core {
namespace {

using testing::Harness;

class SystemTest : public ::testing::Test {};

TEST_F(SystemTest, StartsInTrainingAndCalibrates) {
  Harness h;
  EXPECT_TRUE(h.system().training());
  const auto results = h.advance(20.0, {0, 1}, {});
  EXPECT_EQ(results.front().md_state, MdState::kCalibrating);
  EXPECT_TRUE(h.system().md().calibrated());
}

TEST_F(SystemTest, AutoLabelerCollectsBothClasses) {
  Harness h;
  h.train();
  EXPECT_GE(h.system().training_sample_count(), 8u);
  const auto& labels = h.system().training_samples().labels;
  std::set<int> classes(labels.begin(), labels.end());
  EXPECT_TRUE(classes.count(label_for_workstation(0)));
  EXPECT_TRUE(classes.count(label_for_workstation(1)));
}

TEST_F(SystemTest, FinishTrainingNeedsData) {
  Harness h;
  h.advance(20.0, {0, 1}, {});
  EXPECT_FALSE(h.system().finish_training());
  EXPECT_TRUE(h.system().training());
}

TEST_F(SystemTest, TrainingPhaseIssuesNoActions) {
  Harness h;
  h.advance(20.0, {0, 1}, {});
  const auto results = h.advance(8.0, {1}, Harness::streams_of(0));
  for (const auto& r : results) {
    EXPECT_TRUE(r.actions.empty());
  }
  EXPECT_EQ(h.system().session(0).state(), SessionState::kActive);
}

TEST_F(SystemTest, OnlinePhaseDeauthenticatesTheLeaver) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());
  EXPECT_FALSE(h.system().training());

  // User 0 leaves: typing stops, burst on streams {0, 1}.
  const auto results = h.advance(8.0, {1}, Harness::streams_of(0));
  bool deauthenticated = false;
  for (const auto& r : results) {
    for (const auto& action : r.actions) {
      if (action.type == ActionType::kDeauthenticate) {
        EXPECT_EQ(action.workstation, 0u);
        deauthenticated = true;
      }
    }
  }
  EXPECT_TRUE(deauthenticated);
  EXPECT_EQ(h.system().session(0).state(), SessionState::kLocked);
  // The present user's session survives.
  EXPECT_NE(h.system().session(1).state(), SessionState::kLocked);
}

TEST_F(SystemTest, DeauthenticationIsFast) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());

  const Seconds leave_time = h.now();
  h.advance(8.0, {1}, Harness::streams_of(0));
  const WorkstationSession& session = h.system().session(0);
  ASSERT_GT(session.transition_count(), 0u);
  const SessionTransition& last = session.last_transition();
  ASSERT_EQ(last.to, SessionState::kLocked);
  // Rule 1 fires at t1 + t_delta; within ~6 s of the movement onset.
  EXPECT_LT(last.time - leave_time, 6.5);
}

TEST_F(SystemTest, ClassificationReportedOncePerWindow) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());
  const auto results = h.advance(8.0, {1}, Harness::streams_of(0));
  std::size_t classifications = 0;
  for (const auto& r : results) {
    if (r.classification.has_value()) ++classifications;
  }
  EXPECT_EQ(classifications, 1u);
}

TEST_F(SystemTest, PresentUserKeepsSessionThroughMovementOfOther) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());
  h.leave(0, {1});
  EXPECT_EQ(h.system().session(1).state(), SessionState::kActive);
}

// A state the KMA accepts but the MD refuses must leave the system
// exactly as it was, so recovery can try an older snapshot on it.
TEST_F(SystemTest, FailedImportLeavesTheSystemUnchanged) {
  Harness h;
  h.train();
  ASSERT_TRUE(h.system().finish_training());
  h.advance(5.0, {0, 1}, {});
  const auto encoded = [&h] {
    persist::Snapshot snapshot;
    snapshot.system = h.system().export_state();
    return persist::encode_snapshot(snapshot);
  };
  const std::string before = encoded();

  SystemState bad = h.system().export_state();
  bad.kma_last_input.assign(bad.kma_last_input.size(), 1.0);
  bad.training = true;
  bad.md.calibration_buffer.assign(100000, -60.0);
  try {
    h.system().import_state(bad);
    FAIL() << "import_state accepted an oversized calibration buffer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("calibration buffer"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(encoded(), before);
}

}  // namespace
}  // namespace fadewich::core
