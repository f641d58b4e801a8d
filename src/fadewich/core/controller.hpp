// The control automaton of Fig. 4 with the rules of Table I.
//
//   Quiet --(dW_t >= t_delta: apply Rule 1)--> Noisy
//   Noisy --(dW_t = 0)--> Quiet;  while Noisy apply Rule 2 every step
//
// Rule 1: query RE for the label c of the window's first t_delta seconds;
// if c is a leave label w_i and workstation i has been idle for t_delta,
// Deauthenticate it.  (Table I prints the guard as "c_i not in S(t_delta)";
// deauthenticating a workstation that received input during the window
// would punish a user who demonstrably stayed, so we read the table's
// condition as a typo for membership — the interpretation under which
// every timing in Section V-B and Fig. 9 works out.)
//
// Rule 2: while the variation window continues past t_delta (possible
// overlap of several people moving), every workstation idle for >= 1 s is
// put in Alert State; the session machines then escalate
// Alert -> ScreenSaver -> Locked on their own idle clocks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/core/kma.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::core {

struct ControllerConfig {
  Seconds t_delta = 4.5;
  Seconds rule2_idle = 1.0;  // S(1): idle threshold for alert state
  // Degraded-classifier fallback: when Rule 1's classification is
  // unavailable (RE untrained, or too few live streams under report
  // loss), fall back to Rule-2 alerting at the Rule-1 instant — idle
  // sessions still escalate to a lock on their own timeouts, so a
  // degraded sensor network fails towards safety rather than silence.
  bool rule2_on_unavailable = true;
};

enum class ControlState { kQuiet, kNoisy };

enum class ActionType { kDeauthenticate, kAlert };

struct Action {
  ActionType type = ActionType::kAlert;
  std::size_t workstation = 0;
  Seconds time = 0.0;
};

class Controller {
 public:
  Controller(ControllerConfig config, std::size_t workstation_count);

  /// Advance one step, appending its actions to `actions`.  `now` is the
  /// current time, `window_duration` is MD's dW_t.  `classify` is
  /// invoked exactly once per variation window, at the step where dW_t
  /// reaches t_delta, and must return the RE label for the window's
  /// first t_delta seconds (or std::nullopt if RE is not available, e.g.
  /// still training — Rule 1 is then skipped).  A step appends at most
  /// one action per workstation, so a caller that reserves that much
  /// never allocates here.
  void step(Seconds now, Seconds window_duration,
            const KeyboardMouseActivity& kma,
            const std::function<std::optional<int>()>& classify,
            std::vector<Action>& actions);

  ControlState state() const { return state_; }
  const ControllerConfig& config() const { return config_; }

  /// Restore the FSM state from a persisted snapshot.  A restored kNoisy
  /// controller whose MD re-warms (window duration back to 0) simply
  /// falls back to kQuiet on its next step.
  void restore(ControlState state) { state_ = state; }

  /// The "controller" block: Rule-1 deauths, suppressions (workstation
  /// active or unknown) and unavailable classifications, and Rule-2
  /// alerts, all counted since construction.
  obs::HealthBlock health_block() const;

  /// Movement start to deauth command (the window's age at Rule 1), one
  /// observation per Rule-1 deauth.
  const obs::HistogramSample& deauth_latency() const {
    return deauth_latency_;
  }

 private:
  /// Rule 2: alert every workstation idle for at least rule2_idle.
  void alert_idle(Seconds now, const KeyboardMouseActivity& kma,
                  std::vector<Action>& actions);

  ControllerConfig config_;
  std::size_t workstation_count_;
  ControlState state_ = ControlState::kQuiet;

  std::uint64_t rule1_deauths_ = 0;
  std::uint64_t rule1_suppressed_ = 0;
  std::uint64_t rule1_unavailable_ = 0;
  std::uint64_t rule2_alerts_ = 0;
  obs::HistogramSample deauth_latency_{obs::default_bucket_bounds()};
};

}  // namespace fadewich::core
