#include "fadewich/core/controller.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/core/radio_environment.hpp"

namespace fadewich::core {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : kma_(3), controller_(ControllerConfig{}, 3) {}

  /// Step with a fixed classification result.
  std::vector<Action> step(Seconds now, Seconds window_duration,
                           std::optional<int> label) {
    std::vector<Action> actions;
    controller_.step(now, window_duration, kma_, [&]() { return label; },
                     actions);
    return actions;
  }

  /// Step with a counting classifier; the actions are not inspected.
  void step(Seconds now, Seconds window_duration,
            const std::function<std::optional<int>()>& classify) {
    std::vector<Action> actions;
    controller_.step(now, window_duration, kma_, classify, actions);
  }

  KeyboardMouseActivity kma_;
  Controller controller_;
};

TEST_F(ControllerTest, StaysQuietBelowTDelta) {
  EXPECT_TRUE(step(1.0, 0.0, std::nullopt).empty());
  EXPECT_TRUE(step(2.0, 2.0, std::nullopt).empty());
  EXPECT_EQ(controller_.state(), ControlState::kQuiet);
}

TEST_F(ControllerTest, Rule1FiresOnceWindowReachesTDelta) {
  // Workstation 1 went idle at t = 0; window reaches t_delta at 4.5.
  kma_.record_input(0, 4.0);
  kma_.record_input(1, 0.0);
  kma_.record_input(2, 4.0);
  const auto actions = step(4.5, 4.5, label_for_workstation(1));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kDeauthenticate);
  EXPECT_EQ(actions[0].workstation, 1u);
  EXPECT_DOUBLE_EQ(actions[0].time, 4.5);
  EXPECT_EQ(controller_.state(), ControlState::kNoisy);
}

TEST_F(ControllerTest, Rule1SkipsActiveWorkstation) {
  // RE says w1 left, but w1 had input 1 s ago: no deauthentication.
  kma_.record_input(1, 3.5);
  const auto actions = step(4.5, 4.5, label_for_workstation(1));
  EXPECT_TRUE(actions.empty());
  EXPECT_EQ(controller_.state(), ControlState::kNoisy);
}

TEST_F(ControllerTest, Rule1IgnoresEnteredLabel) {
  const auto actions = step(4.5, 4.5, kLabelEntered);
  EXPECT_TRUE(actions.empty());
  EXPECT_EQ(controller_.state(), ControlState::kNoisy);
}

TEST_F(ControllerTest, UnavailableClassifierFallsBackToRule2) {
  // Movement definitely crossed t_delta but the classifier has no
  // trustworthy answer (too few live streams): the controller degrades
  // to Rule-2 alerts for every idle workstation instead of doing
  // nothing.
  kma_.record_input(0, 4.0);  // active: 0.5 s idle at t = 4.5
  kma_.record_input(1, 0.0);  // idle well past rule2_idle
  kma_.record_input(2, 1.0);  // idle well past rule2_idle
  const auto actions = step(4.5, 4.5, std::nullopt);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].type, ActionType::kAlert);
  EXPECT_EQ(actions[0].workstation, 1u);
  EXPECT_EQ(actions[1].type, ActionType::kAlert);
  EXPECT_EQ(actions[1].workstation, 2u);
  // The FSM still advances: the window did reach t_delta.
  EXPECT_EQ(controller_.state(), ControlState::kNoisy);
}

TEST_F(ControllerTest, Rule1SkipsWhenClassifierUnavailableAndFallbackOff) {
  ControllerConfig config;
  config.rule2_on_unavailable = false;  // legacy behaviour
  Controller controller(config, 3);
  std::vector<Action> actions;
  controller.step(
      4.5, 4.5, kma_, []() -> std::optional<int> { return std::nullopt; },
      actions);
  EXPECT_TRUE(actions.empty());
  EXPECT_EQ(controller.state(), ControlState::kNoisy);
}

TEST_F(ControllerTest, Rule2AlertsIdleWorkstationsWhileNoisy) {
  kma_.record_input(0, 0.0);
  kma_.record_input(1, 0.0);
  kma_.record_input(2, 4.4);
  step(4.5, 4.5, kLabelEntered);  // -> Noisy
  const auto actions = step(4.7, 4.7, std::nullopt);
  // w0 and w1 idle > 1 s, w2 active 0.3 s ago.
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].type, ActionType::kAlert);
  EXPECT_EQ(actions[0].workstation, 0u);
  EXPECT_EQ(actions[1].workstation, 1u);
}

TEST_F(ControllerTest, ReturnsToQuietWhenWindowEnds) {
  step(4.5, 4.5, kLabelEntered);
  EXPECT_EQ(controller_.state(), ControlState::kNoisy);
  const auto actions = step(10.0, 0.0, std::nullopt);
  EXPECT_TRUE(actions.empty());
  EXPECT_EQ(controller_.state(), ControlState::kQuiet);
}

TEST_F(ControllerTest, ClassifyCalledExactlyOncePerWindow) {
  int calls = 0;
  auto counting = [&]() -> std::optional<int> {
    ++calls;
    return kLabelEntered;
  };
  step(4.5, 4.5, counting);
  step(4.7, 4.7, counting);
  step(5.0, 5.0, counting);
  step(6.0, 0.0, counting);  // window over
  EXPECT_EQ(calls, 1);
  // A new window triggers a new classification.
  step(20.0, 4.5, counting);
  EXPECT_EQ(calls, 2);
}

TEST_F(ControllerTest, StepAppendsToTheCallersBuffer) {
  // The system reuses one buffer across steps: a step appends after what
  // the caller left there and leaves it alone when it has no action.
  kma_.record_input(1, 0.0);
  std::vector<Action> actions = {{ActionType::kAlert, 2, 1.0}};
  controller_.step(4.5, 4.5, kma_,
                   [] { return std::optional<int>(label_for_workstation(1)); },
                   actions);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].workstation, 2u);
  EXPECT_EQ(actions[1].type, ActionType::kDeauthenticate);
  EXPECT_EQ(actions[1].workstation, 1u);
  controller_.step(10.0, 0.0, kma_, [] { return std::optional<int>(); },
                   actions);
  EXPECT_EQ(actions.size(), 2u);
}

TEST_F(ControllerTest, Rule1HonoursExactTDeltaIdleBoundary) {
  kma_.record_input(1, 0.0);
  // idle exactly t_delta at t = 4.5: inclusive, so deauthenticate.
  const auto actions = step(4.5, 4.5, label_for_workstation(1));
  ASSERT_EQ(actions.size(), 1u);
}

TEST_F(ControllerTest, RejectsInvalidConfig) {
  ControllerConfig bad;
  bad.t_delta = 0.0;
  EXPECT_THROW(Controller(bad, 3), ContractViolation);
  EXPECT_THROW(Controller(ControllerConfig{}, 0), ContractViolation);
}

TEST_F(ControllerTest, NegativeWindowDurationRejected) {
  EXPECT_THROW(step(1.0, -1.0, std::nullopt), ContractViolation);
}

TEST(LabelConventionTest, RoundTrips) {
  EXPECT_EQ(kLabelEntered, 0);
  EXPECT_TRUE(is_leave_label(label_for_workstation(0)));
  EXPECT_FALSE(is_leave_label(kLabelEntered));
  EXPECT_EQ(workstation_of_label(label_for_workstation(2)), 2u);
}

}  // namespace
}  // namespace fadewich::core
