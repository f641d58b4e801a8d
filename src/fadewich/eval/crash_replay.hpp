// Crash-injection harness for the supervised online pipeline.
//
// Drives the online FadewichSystem over a recording twice: once
// uninterrupted (the reference), once killed at a scheduled tick and
// resurrected from the snapshot ring, then replayed over the rest of the
// recording.  Comparing the two action streams quantifies what a crash
// costs: during the documented re-warm window (the snapshot deliberately
// drops MD's sliding windows, so detection recalibrates for
// `md.std_window` seconds and the profile's update queue is offset by the
// dropped offers) actions may shift by about a tick; after it, deauth
// decisions and per-leave case A/B/C outcomes must match the
// uninterrupted run.
#pragma once

#include <cstdint>
#include <vector>

#include "fadewich/core/system.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/persist/recovery.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

/// A keyboard/mouse input event on the recording's global timeline.
struct DerivedInput {
  Seconds time = 0.0;
  std::size_t workstation = 0;
};

/// Draw input activity from the recording's seated intervals (sitting
/// down counts as an input), sorted by time.  Deterministic in `seed`,
/// so the reference and crashed runs see identical inputs.
std::vector<DerivedInput> derive_inputs(const sim::Recording& recording,
                                        std::size_t workstations,
                                        std::uint64_t seed = 5);

struct OnlineRunConfig {
  core::SystemConfig system;
  Seconds training_duration = 0.0;  // finish_training() at this time
  std::uint64_t input_seed = 5;
};

/// One controller action with the tick it fired on.
struct ActionRecord {
  Tick tick = 0;
  core::ActionType type = core::ActionType::kAlert;
  std::size_t workstation = 0;
  Seconds time = 0.0;
};

/// Run the online pipeline over the whole recording, uninterrupted.
std::vector<ActionRecord> run_online(const sim::Recording& recording,
                                     std::size_t workstations,
                                     const OnlineRunConfig& config);

struct CrashReplayConfig {
  OnlineRunConfig online;
  Tick crash_tick = 0;          // process dies after consuming this tick
  Tick checkpoint_period = 600; // ticks between snapshots
  persist::RecoveryConfig recovery;
  Seconds rewarm_slack = 3.0;   // tolerance added to the re-warm bound
};

/// The documented re-warm bound: seconds after a restore during which
/// decisions may diverge (windows refill over std_window, then a window
/// must close and re-cross t_delta).
Seconds rewarm_bound(const CrashReplayConfig& config);

struct CrashReplayResult {
  std::vector<ActionRecord> actions;  // full crashed-run action stream
  Tick crash_tick = 0;
  Tick restored_tick = 0;       // snapshot tick the replay resumed from
  double recovery_wall_ms = 0.0;
  persist::RecoveryReport report;
  bool cold_start = false;
};

/// Phase 1: run to crash_tick with periodic checkpoints, then drop the
/// process state.  Phase 2: recover the newest snapshot and replay the
/// recording from the restored tick.  Input events already consumed by
/// the snapshot (time <= restored time) are skipped, as KMA's timers were
/// persisted.
CrashReplayResult run_with_crash(const sim::Recording& recording,
                                 std::size_t workstations,
                                 const CrashReplayConfig& config);

struct DivergenceResult {
  std::size_t reference_actions = 0;  // reference actions after restore
  std::size_t divergent_in_rewarm = 0;
  std::size_t divergent_after_rewarm = 0;        // any type, alerts included
  std::size_t divergent_deauths_after_rewarm = 0;  // Rule 1 only: must be 0
  Seconds reconverge_after = 0.0;  // last divergence, relative to restore
};

/// Match the crashed run's actions against the reference after the
/// restore point: an action matches when the other stream has one of the
/// same (type, workstation) within `tolerance` seconds.  Unmatched
/// actions inside the re-warm window are expected; after it they are
/// divergence.  Alert (Rule 2) windows may still gain or lose a boundary
/// tick arbitrarily late: the restored profile's update queue is offset
/// by the offers dropped while the sliding windows refilled, so the
/// threshold trajectory differs by a hair forever.  Deauthentication
/// (Rule 1) decisions must not — `divergent_deauths_after_rewarm` is the
/// hard recovery criterion.
DivergenceResult compare_actions(const std::vector<ActionRecord>& reference,
                                 const CrashReplayResult& crashed,
                                 const TickRate& rate, Seconds rewarm,
                                 Seconds tolerance = 1.0);

/// Per-leave-event case A/B/C outcome from an online action stream:
/// case A when a deauthentication hit the leaving workstation promptly,
/// case B when only an alert fired, case C when neither did.  Delays
/// follow evaluate_security at SecurityConfig's paper defaults: the
/// deauth's time after the proximity exit for case A, tID + tss for B
/// and the time-out T for C.
std::vector<LeaveOutcome> leave_outcomes(
    const sim::Recording& recording, const std::vector<ActionRecord>& actions,
    Seconds horizon = 10.0);

}  // namespace fadewich::eval
