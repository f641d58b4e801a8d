// Active-adversary sweep: what does FADEWICH's security outcome look
// like while the reporting path is under attack, with and without the
// defend module?
//
// Mirrors fault_sweep, but the replay runs the *encoded wire path*:
// recording -> (jam hook) -> authenticated frames -> AttackInjector ->
// FrameDecoder -> Defender -> CentralStation -> degraded recording ->
// evaluate_security.  Each scenario reports the paper's case A/B/C mix
// under attack plus the attacker's and defender's counters, and a
// digest of the released rows so "defender changes nothing on clean
// traffic" is checkable bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fadewich/core/movement_detector.hpp"
#include "fadewich/defend/defender.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/net/adversary.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/rf/geometry.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

/// One point of the adversarial grid.
struct AttackScenario {
  std::string name = "clean";
  net::AttackConfig attack;    // disabled = clean wire
  bool defend = true;          // run the Defender in the path
  defend::DefendConfig defend_config;
  Tick deadline_ticks = 2;     // station release deadline
  std::uint64_t seed = 1;
};

/// The degraded recording the station reconstructed under attack, plus
/// every layer's telemetry.
struct AttackReplayResult {
  sim::Recording recording;
  net::StationHealth health;
  net::WireCounters wire;
  net::AttackInjector::Counters attack;  // zeros when no attack
  defend::DefendCounters defend;         // zeros when no defender
  std::uint64_t gap_rows = 0;
  /// CRC-64-ish digest over every released row's values, in tick order.
  /// Two replays reconstructed the same matrix iff digests match.
  std::uint64_t row_digest = 0;
};

/// Replay `original` through the adversarial wire path.  `positions`
/// are the device locations (geometry for the defender's static bounds;
/// empty = geometry-free defender).  The result keeps the original's
/// tick count, events and seated intervals.
AttackReplayResult replay_under_attack(
    const sim::Recording& original,
    const std::vector<rf::Point>& positions, const AttackScenario& scenario);

/// The "under attack" decision-tree row for one scenario: the standard
/// security outcome mix evaluated on the attacked reconstruction, plus
/// the deauth decisions the attacker *injected* (false-positive windows
/// that classified as a workstation departure — each one is a spurious
/// deauthentication a real deployment would execute).
struct AttackScenarioResult : OutcomeTally {
  AttackScenario scenario;
  double re_accuracy = 0.0;
  /// False-positive variation windows that produced a deauthentication
  /// decision (predicted some workstation's departure).
  std::size_t spurious_deauths = 0;
  net::StationHealth health;
  net::WireCounters wire;
  net::AttackInjector::Counters attack;
  defend::DefendCounters defend;
  std::uint64_t gap_rows = 0;
  std::uint64_t row_digest = 0;
};

/// Replay + security evaluation for one scenario.
AttackScenarioResult evaluate_attack_scenario(
    const sim::Recording& recording,
    const std::vector<rf::Point>& positions,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config, const AttackScenario& scenario);

/// The standard campaign grid over a recording of `tick_count` ticks and
/// `device_count` stations: forge (outsider), forge-insider (stolen
/// key), replay-takeover, flood, outage DoS, jam-mimic and jam-mask —
/// each centred on the middle of the recording.  `defend` and
/// `defend_config` are applied to every scenario.
std::vector<AttackScenario> standard_attack_scenarios(
    Tick tick_count, std::size_t device_count, bool defend,
    const defend::DefendConfig& defend_config, std::uint64_t seed);

}  // namespace fadewich::eval
