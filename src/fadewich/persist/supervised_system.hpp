// SupervisedSystem: a FadewichSystem under crash protection.
//
// On construction it recovers the newest valid snapshot from the ring
// (or cold-starts, flagged degraded).  Every step() heartbeats the
// watchdog, checkpoints on a fixed period, and catches module
// exceptions: a throwing step is reported to the Supervisor, which
// restores the last checkpoint (bounded by max_restarts).  After a
// restore the pipeline resumes from the snapshot's tick with empty
// sliding windows, so detection re-warms for `md.std_window` seconds.
#pragma once

#include <cstdint>
#include <optional>

#include "fadewich/core/system.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/fault_injector.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/persist/recovery.hpp"
#include "fadewich/persist/supervisor.hpp"

namespace fadewich::persist {

struct SupervisedConfig {
  RecoveryConfig recovery;
  SupervisorConfig supervisor;
  Tick checkpoint_period_ticks = 600;  // >= 1
};

class SupervisedSystem {
 public:
  /// Builds the pipeline, then recovers from the snapshot ring.  A
  /// usable snapshot restores everything learned; otherwise the system
  /// cold-starts and degraded_start() is true.
  SupervisedSystem(std::size_t stream_count, std::size_t workstation_count,
                   core::SystemConfig system_config,
                   SupervisedConfig config);

  /// True when construction found no usable snapshot (training and the
  /// profile start from scratch).
  bool degraded_start() const { return degraded_start_; }

  /// What recovery saw at construction: the winning file, every
  /// rejected one and why, and whether this was a cold start.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  // --- Pipeline passthrough -----------------------------------------
  core::FadewichSystem& system() { return system_; }
  const core::FadewichSystem& system() const { return system_; }
  Seconds now() const { return system_.now(); }
  bool training() const { return system_.training(); }
  void record_input(std::size_t workstation, Seconds t) {
    system_.record_input(workstation, t);
  }
  bool finish_training() { return system_.finish_training(); }

  /// Step the pipeline under the watchdog.  A throwing step is
  /// reported, the Supervisor restores the last checkpoint, and an
  /// empty result is returned for that tick; `recovered` is set so
  /// callers can observe the restart.
  struct StepResult {
    core::FadewichSystem::StepResult inner;
    bool recovered = false;  // this step restored from a checkpoint
  };
  StepResult step(std::span<const double> rssi_row,
                  std::span<const std::uint8_t> valid = {});

  /// Latest central-station health to embed in checkpoints (optional;
  /// zeroed when never set).
  void set_station_health(net::StationHealth health) {
    station_health_ = std::move(health);
  }

  /// Force a checkpoint now; returns its path.
  std::string checkpoint_now();

  std::uint64_t checkpoints_written() const {
    return recovery_.checkpoints_written();
  }

  HealthReport health() const { return supervisor_.health(); }

  /// One unified observability document: every metric family plus
  /// pipeline, station, fault (when given), and supervisor health, with
  /// recent events folded in.  Render with to_prometheus() or to_json().
  obs::ScrapeReport scrape(
      const net::FaultInjector::Counters* faults = nullptr) const;

 private:
  bool restore_from_ring();

  core::FadewichSystem system_;
  RecoveryManager recovery_;
  Supervisor supervisor_;
  Tick checkpoint_period_;
  net::StationHealth station_health_;
  RecoveryReport recovery_report_;
  bool degraded_start_ = false;
  std::uint64_t steps_ = 0;
};

}  // namespace fadewich::persist
