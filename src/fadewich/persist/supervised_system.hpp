// SupervisedSystem: a FadewichSystem under crash protection.
//
// On construction it recovers the newest snapshot from the ring that
// fits this deployment (or cold-starts, flagged degraded).  Every step()
// checkpoints through the RecoveryManager's one cadence rule (ticks
// divisible by `checkpoint_period`) and catches module exceptions: a
// throwing step restores the newest fitting checkpoint, up to
// `max_restarts` times.  A fault with the budget spent, or a restore
// that finds nothing to import, retires the pipeline: it keeps stepping,
// is no longer restored, and is reported retired in the scrape.  After a restore
// the pipeline resumes from the snapshot's tick with empty sliding
// windows, so detection re-warms for `md.std_window` seconds.
#pragma once

#include <cstdint>

#include "fadewich/core/system.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/fault_injector.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/persist/recovery.hpp"

namespace fadewich::persist {

class SupervisedSystem {
 public:
  /// Builds the pipeline, then recovers from the snapshot ring.  A
  /// usable snapshot restores everything learned; otherwise the system
  /// cold-starts and degraded_start() is true.
  SupervisedSystem(std::size_t stream_count, std::size_t workstation_count,
                   core::SystemConfig system_config,
                   RecoveryConfig recovery);

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

  /// Step the pipeline.  A throwing step restores the newest fitting
  /// checkpoint (while the restart budget lasts) and returns an empty
  /// result for that tick; `recovered` is set when it restored, so
  /// callers can observe the restart.
  struct StepResult {
    core::FadewichSystem::StepResult inner;
    bool recovered = false;  // this step restored from a checkpoint
  };
  StepResult step(std::span<const double> rssi_row,
                  std::span<const std::uint8_t> valid = {});

  /// Latest health of the central station this pipeline runs behind,
  /// for the scrape's station block (zeroed when never set).  Not
  /// persisted: a restore leaves it as this instance last set it.
  void set_station_health(net::StationHealth health) {
    station_health_ = std::move(health);
  }

  /// Force a checkpoint now; returns its path.
  std::string checkpoint_now();

  std::uint64_t checkpoints_written() const {
    return recovery_.checkpoints_written();
  }

  /// Restart attempts after faulted steps (a failed one counts too).
  std::uint64_t restarts() const { return recovery_.restarts(); }
  /// True once a fault found the budget spent or nothing to restore.
  bool retired() const { return retired_; }

  /// This instance's event log: its recovery outcome and rejected
  /// snapshots (construction and restarts) and its failed steps, and
  /// nothing from any other instance.  events().set_sink() streams later
  /// records to a JSONL file; construction's records are already in
  /// recent() by then.
  obs::EventLog& events() { return events_; }

  /// One unified observability document about this instance: the
  /// pipeline block (tick, training, degraded start, checkpoints, SIMD
  /// ISA), the md, controller and re blocks with this pipeline's
  /// histograms, station, fault (when given) and restart health, and
  /// this instance's own recent events.  Render with to_prometheus() or
  /// to_json().
  obs::ScrapeReport scrape(
      const net::FaultInjector::Counters* faults = nullptr) const;

 private:
  bool restore(RecoveryReport& report, Tick tick);
  bool restart(Tick tick);

  core::FadewichSystem system_;
  RecoveryManager recovery_;
  net::StationHealth station_health_;
  RecoveryReport recovery_report_;
  obs::EventLog events_;
  bool degraded_start_ = false;
  bool retired_ = false;
};

}  // namespace fadewich::persist
