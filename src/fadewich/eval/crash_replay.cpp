#include "fadewich/eval/crash_replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/sim/input_activity.hpp"

namespace fadewich::eval {

namespace {

std::span<const core::Action> actions_of(
    const core::FadewichSystem::StepResult& result) {
  return result.actions;
}
std::span<const core::Action> actions_of(
    const persist::SupervisedSystem::StepResult& result) {
  return result.inner.actions;
}

/// Drive `system` (a plain or a supervised pipeline) over recording
/// ticks [begin, end), delivering derived inputs and flipping to the
/// online phase at `training_duration`.  `next_input` carries the input
/// cursor across calls so a replay can skip what the snapshot already
/// consumed.
template <class System>
void drive(System& system, const sim::Recording& recording,
           const std::vector<DerivedInput>& inputs, std::size_t& next_input,
           Tick begin, Tick end, Seconds training_duration,
           std::vector<ActionRecord>& actions) {
  std::vector<std::size_t> streams(recording.stream_count());
  std::iota(streams.begin(), streams.end(), std::size_t{0});
  std::vector<double> row(streams.size());
  for (Tick t = begin; t < end; ++t) {
    const Seconds now = recording.rate().to_seconds(t);
    if (system.training() && now >= training_duration) {
      system.finish_training();
    }
    while (next_input < inputs.size() && inputs[next_input].time <= now) {
      system.record_input(inputs[next_input].workstation,
                          inputs[next_input].time);
      ++next_input;
    }
    recording.copy_rows(streams, t, t, row);
    const auto result = system.step(row);
    for (const core::Action& action : actions_of(result)) {
      actions.push_back({t, action.type, action.workstation, action.time});
    }
  }
}

}  // namespace

std::vector<DerivedInput> derive_inputs(const sim::Recording& recording,
                                        std::size_t workstations,
                                        std::uint64_t seed) {
  std::vector<DerivedInput> inputs;
  Rng rng(seed);
  for (std::size_t w = 0; w < workstations; ++w) {
    sim::InputActivitySimulator sim({}, rng.split(w));
    const auto events = sim.generate(
        recording.total_duration(),
        [&](Seconds t) { return recording.seated_at(w, t); });
    for (Seconds t : events) inputs.push_back({t, w});
    // Sitting down counts as input (log-in / grabbing the mouse).
    for (const Interval& iv : recording.seated_intervals()[w]) {
      inputs.push_back({iv.begin, w});
    }
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const DerivedInput& a, const DerivedInput& b) {
              return a.time < b.time;
            });
  return inputs;
}

std::vector<ActionRecord> run_online(const sim::Recording& recording,
                                     std::size_t workstations,
                                     const OnlineRunConfig& config) {
  core::SystemConfig system_config = config.system;
  system_config.tick_hz = recording.rate().hz();
  core::FadewichSystem system(recording.stream_count(), workstations,
                              system_config);
  const auto inputs =
      derive_inputs(recording, workstations, config.input_seed);
  std::vector<ActionRecord> actions;
  std::size_t next_input = 0;
  drive(system, recording, inputs, next_input, 0, recording.tick_count(),
        config.training_duration, actions);
  return actions;
}

Seconds rewarm_bound(const CrashReplayConfig& config) {
  // Windows refill over std_window; the profile's merge gap and the
  // controller's t_delta bound how long until the first post-restore
  // window can fire, plus configured slack for tick rounding.
  return config.online.system.md.std_window +
         config.online.system.md.merge_gap +
         config.online.system.controller.t_delta + config.rewarm_slack;
}

CrashReplayResult run_with_crash(const sim::Recording& recording,
                                 std::size_t workstations,
                                 const CrashReplayConfig& config) {
  if (config.crash_tick < 0 || config.crash_tick >= recording.tick_count()) {
    throw Error("crash_tick outside the recording");
  }
  core::SystemConfig system_config = config.online.system;
  system_config.tick_hz = recording.rate().hz();
  const auto inputs =
      derive_inputs(recording, workstations, config.online.input_seed);

  CrashReplayResult result;
  result.crash_tick = config.crash_tick;

  // Phase 1: a fresh supervised pipeline runs to the crash tick,
  // checkpointing on the ring's cadence.  It is then dropped — everything
  // not in the ring is lost.
  {
    persist::SupervisedSystem live(recording.stream_count(), workstations,
                                   system_config, config.recovery);
    if (!live.degraded_start()) {
      throw Error("crash replay: the snapshot ring must start empty");
    }
    std::size_t next_input = 0;
    drive(live, recording, inputs, next_input, 0, config.crash_tick + 1,
          config.online.training_duration, result.actions);
  }

  // Phase 2: a new supervised pipeline recovers from the ring as it is
  // built, then replays the rest.
  const auto t0 = std::chrono::steady_clock::now();
  persist::SupervisedSystem reborn(recording.stream_count(), workstations,
                                   system_config, config.recovery);
  result.recovery_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  result.report = reborn.recovery_report();
  result.cold_start = reborn.degraded_start();
  const Tick restored = reborn.system().tick();
  result.restored_tick = restored;

  // The crashed run's observable history ends at the snapshot: discard
  // actions the dead process emitted past the restore point (a real
  // restart would never have emitted them to anyone who remembers).
  std::erase_if(result.actions, [&](const ActionRecord& a) {
    return a.tick >= restored;
  });

  // Skip inputs the snapshot already consumed (KMA timers persisted).
  std::size_t next_input = 0;
  if (restored > 0) {
    const Seconds consumed_until =
        recording.rate().to_seconds(restored - 1);
    while (next_input < inputs.size() &&
           inputs[next_input].time <= consumed_until) {
      ++next_input;
    }
  }
  drive(reborn, recording, inputs, next_input, restored,
        recording.tick_count(), config.online.training_duration,
        result.actions);
  return result;
}

DivergenceResult compare_actions(const std::vector<ActionRecord>& reference,
                                 const CrashReplayResult& crashed,
                                 const TickRate& rate, Seconds rewarm,
                                 Seconds tolerance) {
  const Seconds restore_time = rate.to_seconds(crashed.restored_tick);

  std::vector<const ActionRecord*> ref, got;
  for (const ActionRecord& a : reference) {
    if (a.tick >= crashed.restored_tick) ref.push_back(&a);
  }
  for (const ActionRecord& a : crashed.actions) {
    if (a.tick >= crashed.restored_tick) got.push_back(&a);
  }

  DivergenceResult out;
  out.reference_actions = ref.size();

  std::vector<bool> used(got.size(), false);
  std::vector<const ActionRecord*> divergent;
  for (const ActionRecord* a : ref) {
    bool matched = false;
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (used[j]) continue;
      if (got[j]->type == a->type && got[j]->workstation == a->workstation &&
          std::abs(got[j]->time - a->time) <= tolerance) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) divergent.push_back(a);
  }
  for (std::size_t j = 0; j < got.size(); ++j) {
    if (!used[j]) divergent.push_back(got[j]);
  }

  for (const ActionRecord* a : divergent) {
    if (a->time <= restore_time + rewarm) {
      ++out.divergent_in_rewarm;
    } else {
      ++out.divergent_after_rewarm;
      if (a->type == core::ActionType::kDeauthenticate) {
        ++out.divergent_deauths_after_rewarm;
      }
    }
    out.reconverge_after =
        std::max(out.reconverge_after, a->time - restore_time);
  }
  return out;
}

std::vector<LeaveOutcome> leave_outcomes(
    const sim::Recording& recording, const std::vector<ActionRecord>& actions,
    Seconds horizon) {
  const SecurityConfig paper;
  std::vector<LeaveOutcome> outcomes;
  const std::vector<sim::GroundTruthEvent>& events = recording.events();
  for (std::size_t e = 0; e < events.size(); ++e) {
    const sim::GroundTruthEvent& event = events[e];
    if (event.kind != sim::EventKind::kLeave) continue;
    LeaveOutcome outcome{e, DeauthCase::kMissed, paper.timeout};
    for (const ActionRecord& action : actions) {
      if (action.workstation != event.workstation) continue;
      if (action.time < event.movement_start ||
          action.time > event.departure_time() + horizon) {
        continue;
      }
      if (action.type == core::ActionType::kDeauthenticate) {
        outcome.outcome = DeauthCase::kCorrect;
        outcome.delay = std::max(0.0, action.time - event.proximity_exit);
        break;
      }
      outcome.outcome = DeauthCase::kMisclassified;  // alert only: case B
      outcome.delay = paper.t_id + paper.t_ss;
    }
    outcomes.push_back(outcome);
  }
  return outcomes;
}

}  // namespace fadewich::eval
