#include "fadewich/core/controller.hpp"

#include "fadewich/common/error.hpp"
#include "fadewich/core/radio_environment.hpp"

namespace fadewich::core {

Controller::Controller(ControllerConfig config,
                       std::size_t workstation_count)
    : config_(config), workstation_count_(workstation_count) {
  FADEWICH_EXPECTS(config_.t_delta > 0.0);
  FADEWICH_EXPECTS(config_.rule2_idle > 0.0);
  FADEWICH_EXPECTS(workstation_count >= 1);
}

void Controller::step(Seconds now, Seconds window_duration,
                      const KeyboardMouseActivity& kma,
                      const std::function<std::optional<int>()>& classify,
                      std::vector<Action>& actions) {
  FADEWICH_EXPECTS(window_duration >= 0.0);

  switch (state_) {
    case ControlState::kQuiet:
      if (window_duration >= config_.t_delta) {
        // Rule 1, exactly once per window, right as it reaches t_delta.
        const std::optional<int> label = classify();
        if (label && is_leave_label(*label)) {
          const std::size_t w = workstation_of_label(*label);
          if (w < workstation_count_ &&
              kma.idle_for(w, now, config_.t_delta)) {
            actions.push_back({ActionType::kDeauthenticate, w, now});
            ++rule1_deauths_;
            // Latency from movement start to the deauth command is the
            // window's age when Rule 1 fires.
            deauth_latency_.observe(window_duration);
          } else {
            ++rule1_suppressed_;
          }
        } else if (!label) {
          ++rule1_unavailable_;
          if (config_.rule2_on_unavailable) {
            // No trustworthy classification: movement definitely happened
            // (MD crossed t_delta), so protect every idle workstation via
            // Rule 2 instead of doing nothing.
            alert_idle(now, kma, actions);
          }
        }
        state_ = ControlState::kNoisy;
      }
      break;

    case ControlState::kNoisy:
      if (window_duration == 0.0) {
        state_ = ControlState::kQuiet;
      } else {
        // Rule 2: the window is continuing past t_delta; other users may
        // be moving too, so protect every idle workstation.
        alert_idle(now, kma, actions);
      }
      break;
  }
}

void Controller::alert_idle(Seconds now, const KeyboardMouseActivity& kma,
                            std::vector<Action>& actions) {
  for (std::size_t w = 0; w < kma.workstation_count(); ++w) {
    if (kma.idle_for(w, now, config_.rule2_idle)) {
      actions.push_back({ActionType::kAlert, w, now});
      ++rule2_alerts_;
    }
  }
}

obs::HealthBlock Controller::health_block() const {
  obs::HealthBlock block;
  block.name = "controller";
  block.add("rule1_deauths", static_cast<double>(rule1_deauths_));
  block.add("rule1_suppressed", static_cast<double>(rule1_suppressed_));
  block.add("rule1_unavailable", static_cast<double>(rule1_unavailable_));
  block.add("rule2_alerts", static_cast<double>(rule2_alerts_));
  return block;
}

}  // namespace fadewich::core
