// Full-stack integration: simulate an office over two days with the RF
// channel model, then drive the *online* FadewichSystem from the recorded
// streams — day 1 in training mode (KMA auto-labeling, no supervisor),
// day 2 online.  Verifies the headline behaviour of the paper: users are
// deauthenticated within seconds of leaving, present users keep their
// sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "fadewich/core/system.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/sim/input_activity.hpp"

namespace fadewich {
namespace {

struct InputEvent {
  Seconds time;
  std::size_t workstation;
};

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::PaperSetup setup = eval::small_setup(3, 40.0 * 60.0);
    setup.seed = 4242;
    setup.day.min_breaks = 2;
    setup.day.max_breaks = 3;
    experiment_ = std::make_unique<eval::PaperExperiment>(
        eval::make_paper_experiment(setup));

    // Draw keyboard/mouse inputs from the seated intervals.
    inputs_ = std::make_unique<std::vector<InputEvent>>();
    Rng rng(5);
    for (std::size_t w = 0; w < 3; ++w) {
      sim::InputActivitySimulator sim({}, rng.split(w));
      const auto events = sim.generate(
          experiment_->recording.total_duration(), [&](Seconds t) {
            return experiment_->recording.seated_at(w, t);
          });
      for (Seconds t : events) inputs_->push_back({t, w});
      // Sitting down counts as input (log-in / grabbing the mouse).
      for (const Interval& iv :
           experiment_->recording.seated_intervals()[w]) {
        inputs_->push_back({iv.begin, w});
      }
    }
    std::sort(inputs_->begin(), inputs_->end(),
              [](const InputEvent& a, const InputEvent& b) {
                return a.time < b.time;
              });
  }

  static void TearDownTestSuite() {
    experiment_.reset();
    inputs_.reset();
  }

  static const sim::Recording& recording() {
    return experiment_->recording;
  }

  static std::unique_ptr<eval::PaperExperiment> experiment_;
  static std::unique_ptr<std::vector<InputEvent>> inputs_;
};

std::unique_ptr<eval::PaperExperiment> EndToEndTest::experiment_;
std::unique_ptr<std::vector<InputEvent>> EndToEndTest::inputs_;

TEST_F(EndToEndTest, TrainThenDeauthenticateOnline) {
  core::SystemConfig config;
  config.tick_hz = recording().rate().hz();
  config.md = eval::default_md_config();
  core::FadewichSystem system(recording().stream_count(), 3, config);

  std::vector<std::size_t> streams(recording().stream_count());
  std::iota(streams.begin(), streams.end(), std::size_t{0});
  std::vector<double> row(streams.size());
  std::size_t next_input = 0;

  const Seconds day_length = recording().day_length();
  bool trained = false;
  std::vector<core::Action> deauth_actions;

  for (Tick t = 0; t < recording().tick_count(); ++t) {
    recording().copy_rows(streams, t, t, row);
    const Seconds now = recording().rate().to_seconds(t);

    // Switch to the online phase after two training days (the paper
    // reports ~90% RE accuracy after roughly two days of samples).
    if (!trained && now >= 2.0 * day_length) {
      ASSERT_GE(system.training_sample_count(), 4u);
      ASSERT_TRUE(system.finish_training())
          << "training day must collect at least two classes";
      trained = true;
    }

    while (next_input < inputs_->size() &&
           (*inputs_)[next_input].time <= now) {
      system.record_input((*inputs_)[next_input].workstation,
                          (*inputs_)[next_input].time);
      ++next_input;
    }

    const auto result = system.step(row);
    for (const auto& action : result.actions) {
      if (action.type == core::ActionType::kDeauthenticate) {
        deauth_actions.push_back(action);
      }
    }
  }
  ASSERT_TRUE(trained);

  // Online-day leave events: most should be deauthenticated within
  // seconds.
  std::size_t day2_leaves = 0;
  std::size_t fast_deauths = 0;
  for (const auto& event : recording().events()) {
    if (event.kind != sim::EventKind::kLeave) continue;
    if (event.movement_start < 2.0 * day_length) continue;
    ++day2_leaves;
    for (const auto& action : deauth_actions) {
      if (action.workstation == event.workstation &&
          action.time >= event.movement_start &&
          action.time <= event.departure_time() + 10.0) {
        ++fast_deauths;
        break;
      }
    }
  }
  ASSERT_GT(day2_leaves, 0u);
  EXPECT_GE(fast_deauths * 2, day2_leaves)
      << fast_deauths << " of " << day2_leaves
      << " day-2 leaves deauthenticated quickly";

  // Misclassifications can deauthenticate a seated user (the usability
  // cost Table IV accounts); they must stay the exception, not the rule.
  std::size_t seated_deauths = 0;
  for (const auto& action : deauth_actions) {
    if (recording().seated_at(action.workstation, action.time - 0.5)) {
      ++seated_deauths;
    }
  }
  EXPECT_LE(seated_deauths * 3, deauth_actions.size() + 2)
      << seated_deauths << " of " << deauth_actions.size()
      << " deauthentications hit a seated user";
}

}  // namespace
}  // namespace fadewich
