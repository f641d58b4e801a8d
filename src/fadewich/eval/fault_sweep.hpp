// Fault-tolerance sweep: how does FADEWICH's security outcome degrade
// when the sensor network loses, delays, or duplicates reports, or loses
// whole sensors?
//
// The sweep replays a recorded experiment through the faulty transport
// (net::FaultInjector) and the deadline-driven CentralStation, producing
// a *degraded* recording — the RSSI matrix the central station actually
// reconstructed, with lost cells imputed from last-known values.  The
// standard offline security evaluation (eval::evaluate_security) then
// runs on that degraded recording, so every scenario reports the paper's
// case A/B/C outcome mix and deauthentication delays under that fault
// load.  Scenario (loss = 0, dropped sensors = 0) reproduces the
// fault-free evaluation exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "fadewich/core/movement_detector.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/fault_injector.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

/// A degraded recording plus the transport/station telemetry of the
/// replay that produced it.
struct ReplayResult {
  sim::Recording recording;
  net::StationHealth health;
  net::FaultInjector::Counters fault_counters;  // zeros if faults disabled
  std::uint64_t gap_rows = 0;  // ticks forward-filled (eviction gaps)
};

/// Replay `original` through the faulty transport and the central
/// station.  The result has the same tick count, events and seated
/// intervals as the original; sample values reflect losses (imputed
/// cells hold the stream's last released value).  With faults disabled
/// the samples are byte-identical to the original.
ReplayResult replay_through_station(const sim::Recording& original,
                                    const net::FaultConfig& faults,
                                    net::StationConfig station_config,
                                    std::uint64_t seed);

/// Rebuilds a recording from a station's released rows, for the fault
/// and attack replays: each row is written in the recording's stream
/// order, and ticks the station evicted are forward-filled from the
/// previous row (zeros before any) and counted as gaps.
class StationRecorder {
 public:
  /// Starts an empty recording with `original`'s shape and ground truth
  /// (events, seated intervals).
  StationRecorder(const net::CentralStation& station,
                  const sim::Recording& original);

  /// Append `row` after forward-filling any ticks before it; returns
  /// the samples appended for the row.
  const std::vector<double>& append(const net::StationRow& row);

  /// Forward-fill up to `ticks` ticks and hand the recording over.
  sim::Recording finish(Tick ticks);

  Tick ticks() const { return next_; }
  std::uint64_t gaps() const { return gaps_; }

 private:
  void fill_to(Tick ticks);

  sim::Recording out_;
  std::vector<std::size_t> rec_stream_;  // station stream -> recording
  std::vector<double> row_;              // the last row appended
  Tick next_ = 0;
  std::uint64_t gaps_ = 0;
};

/// One point of the sweep grid.
struct FaultScenario {
  double loss_rate = 0.0;           // uniform per-report drop probability
  std::size_t dropped_sensors = 0;  // sensors fully offline for the run
  Tick deadline_ticks = 2;          // station release deadline
  std::uint64_t seed = 1;
};

/// Build the scenario's transport faults for a deployment of
/// `sensor_count` sensors.  Dropped sensors are taken from the *back* of
/// the spatially-spread priority order (eval::sensor_subset), i.e. the
/// least critical placements fail first.
net::FaultConfig scenario_faults(const FaultScenario& scenario,
                                 std::size_t sensor_count,
                                 Tick tick_count);

/// The scenario's outcome tally over its leave events, plus replay health.
struct FaultScenarioResult : OutcomeTally {
  FaultScenario scenario;
  double re_accuracy = 0.0;
  net::StationHealth health;
  net::FaultInjector::Counters fault_counters;
};

/// Replay + security evaluation for one scenario.
FaultScenarioResult evaluate_fault_scenario(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config, const FaultScenario& scenario);

}  // namespace fadewich::eval
