#include "fadewich/core/workstation.hpp"

#include "fadewich/common/error.hpp"

namespace fadewich::core {

namespace {
// An alert not refreshed for this long (and not yet a screensaver) decays
// back to Active; the controller refreshes every tick while Noisy.
constexpr Seconds kAlertDecay = 1.5;
}  // namespace

WorkstationSession::WorkstationSession(Seconds t_id, Seconds t_ss)
    : t_id_(t_id), t_ss_(t_ss) {
  FADEWICH_EXPECTS(t_id > 0.0);
  FADEWICH_EXPECTS(t_ss > 0.0);
}

void WorkstationSession::transition(SessionState to, Seconds now) {
  state_ = to;
  ++transition_count_;
  last_transition_ = {to, now};
}

void WorkstationSession::on_alert(Seconds now, Seconds idle_time) {
  last_alert_ = now;
  if (state_ == SessionState::kActive && idle_time < t_id_ + t_ss_) {
    transition(SessionState::kAlert, now);
    // Idle already past tID (Rule 1's decision lands at ~t_delta ~ tID
    // of idle for the user who left): the screensaver shows at once.
    if (idle_time >= t_id_) transition(SessionState::kScreenSaver, now);
  }
}

void WorkstationSession::on_deauthenticate(Seconds now) {
  if (state_ != SessionState::kLocked) {
    transition(SessionState::kLocked, now);
  }
}

void WorkstationSession::on_input(Seconds now) {
  switch (state_) {
    case SessionState::kActive:
      break;
    case SessionState::kAlert:
    case SessionState::kScreenSaver:
      transition(SessionState::kActive, now);
      break;
    case SessionState::kLocked:
      // Re-login: the input is the user authenticating again.
      transition(SessionState::kActive, now);
      break;
  }
}

void WorkstationSession::restore(const SessionSnapshot& snapshot) {
  state_ = snapshot.state;
  last_alert_ = snapshot.last_alert;
  transition_count_ = 0;
  last_transition_ = {};
}

void WorkstationSession::tick(Seconds now, Seconds idle_time) {
  switch (state_) {
    case SessionState::kActive:
    case SessionState::kLocked:
      break;
    case SessionState::kAlert:
      if (idle_time >= t_id_) {
        transition(SessionState::kScreenSaver, now);
      } else if (now - last_alert_ > kAlertDecay) {
        transition(SessionState::kActive, now);
      }
      break;
    case SessionState::kScreenSaver:
      if (idle_time >= t_id_ + t_ss_) {
        transition(SessionState::kLocked, now);
      }
      break;
  }
}

}  // namespace fadewich::core
