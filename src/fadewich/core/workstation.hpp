// Per-workstation session state machine (Section IV-F's actions).
//
//   Active --(alert, idle>=1s)--> Alert
//   Alert --(idle >= tID)--> ScreenSaver --(idle >= tID+tss)--> Locked
//   Alert --(input)--> Active        ScreenSaver --(input)--> Active
//   any --(Rule 1 Deauthenticate)--> Locked
//   Locked --(input = re-login)--> Active
//
// An Alert that is no longer refreshed by the controller (the variation
// window ended) and has not yet reached the screensaver decays back to
// Active.  The session counts its transitions and keeps the last one,
// timestamped, so evaluations can account deauthentication delays
// (cases A/B of Fig. 5) and usability costs (screensaver cancellations,
// forced re-logins); both are fixed-size, so a session never grows.
//
// Arming policy: this machine errs fail-secure.  An alert arms whenever
// the lock edge (idle = tID + tss) is still ahead, so a user whose idle
// edge slipped past tID before Rule 2 began (the departed user's input
// stops *before* the movement is detected) is still escalated and
// locked.  The paper's analytic usability accounting
// (eval/usability.cpp) is slightly laxer; the deployed machine prefers
// locking a departed session over saving a present user one screensaver
// cancel.
#pragma once

#include <cstdint>

#include "fadewich/common/time.hpp"

namespace fadewich::core {

enum class SessionState { kActive, kAlert, kScreenSaver, kLocked };

struct SessionTransition {
  SessionState to = SessionState::kActive;
  Seconds time = 0.0;
};

/// Durable session state for persistence.  The transition count and the
/// last transition are audit output, not state the machine depends on,
/// so they are not persisted.
struct SessionSnapshot {
  SessionState state = SessionState::kActive;
  Seconds last_alert = -1.0e18;
};

class WorkstationSession {
 public:
  WorkstationSession(Seconds t_id, Seconds t_ss);

  SessionState state() const { return state_; }
  /// State changes since construction or the last restore().
  std::uint64_t transition_count() const { return transition_count_; }
  /// The latest state change; meaningful once transition_count() > 0.
  const SessionTransition& last_transition() const {
    return last_transition_;
  }

  /// Controller issued an Alert-State action at `now` (refreshing counts
  /// as issuing).  `idle_time` is the workstation's current idle time;
  /// the alert arms only while the lock edge (tID + tss of idle) is
  /// still ahead — a user already idle past it when the alert arrives
  /// was never armed, so entering alert cannot retroactively lock them.
  void on_alert(Seconds now, Seconds idle_time);

  /// Controller issued Rule 1's Deauthenticate at `now`.
  void on_deauthenticate(Seconds now);

  /// The user generated input at `now`.  Cancels alert/screensaver; from
  /// Locked this is the re-login.
  void on_input(Seconds now);

  /// Advance time: progress Alert -> ScreenSaver -> Locked based on the
  /// idle time reported by KMA, and decay unrefreshed alerts.
  /// `idle_time` is seconds since the workstation's last input.
  void tick(Seconds now, Seconds idle_time);

  /// Durable state for persistence.
  SessionSnapshot snapshot() const { return {state_, last_alert_}; }

  /// Restore persisted state; the transition count restarts at 0.
  void restore(const SessionSnapshot& snapshot);

 private:
  void transition(SessionState to, Seconds now);

  Seconds t_id_;
  Seconds t_ss_;
  SessionState state_ = SessionState::kActive;
  Seconds last_alert_ = -1.0e18;
  std::uint64_t transition_count_ = 0;
  SessionTransition last_transition_;
};

}  // namespace fadewich::core
