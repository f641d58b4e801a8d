// Snapshot ring, checkpoint cadence, restart budget and recovery policy.
//
// A RecoveryManager owns a directory of numbered snapshot files
// (`snap-00000042.fdws`).  checkpoint_if_due() is the one checkpoint
// rule: it snapshots a live pipeline whenever its tick is a multiple of
// `checkpoint_period`, so the cadence survives a restore.  checkpoint()
// writes a snapshot durably and prunes the ring to `ring_size` files;
// recover() walks the ring newest-first, skipping corrupt or
// version-mismatched files and snapshots the pipeline refuses to import
// (another deployment's shape), retrying transient I/O failures with
// bounded backoff.  It imports the newest snapshot that both loads and
// fits — or reports an explicit cold start and leaves the pipeline
// untouched.  try_restart() is the one restart budget.  Every checkpoint
// and restore site (the supervised system, which the crash-replay
// harness drives, and fleet shards) goes through this one manager.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fadewich/core/system.hpp"
#include "fadewich/obs/export.hpp"
#include "fadewich/persist/snapshot.hpp"

namespace fadewich::persist {

struct RecoveryConfig {
  std::string directory;         // created on demand; must be non-empty
  std::size_t ring_size = 4;     // snapshots retained, >= 1
  std::size_t max_retries = 3;   // attempts per file on transient I/O
  double backoff_ms = 10.0;      // sleep between retries, >= 0
  Tick checkpoint_period = 600;  // checkpoint on ticks divisible by it, >= 1
  std::size_t max_restarts = 5;  // restart attempts after faults, >= 1
};

/// One rejected snapshot file during recovery.
struct RecoveryAttempt {
  std::string path;
  std::string reason;
};

/// What happened during recover(): which file won (empty on cold start),
/// which were rejected and why, and whether the pipeline starts degraded
/// (cold start — everything learned is gone).
struct RecoveryReport {
  std::string recovered_path;
  std::vector<RecoveryAttempt> rejected;
  bool cold_start = false;
};

/// Record what one recover() saw in `log`, at `tick`: each rejected file
/// as a "snapshot rejected during recovery" warning (fields `context` —
/// the fleet passes the office — then the file's path and reason), then
/// the outcome: "recovered from snapshot" with its path, or the warning
/// "cold start: no usable snapshot".  Every recover() site logs through
/// this one helper.
void log_recovery(obs::EventLog& log, const RecoveryReport& report,
                  const obs::EventFields& context, Tick tick);

class RecoveryManager {
 public:
  /// Validates the config (throws fadewich::Error) and creates the
  /// snapshot directory if missing.  Numbering continues from the
  /// highest existing snapshot, so a restarted process never overwrites
  /// its predecessor's files.
  explicit RecoveryManager(RecoveryConfig config);

  const RecoveryConfig& config() const { return config_; }

  /// Write a new snapshot into the ring; returns its path.  Prunes the
  /// oldest files beyond ring_size.
  std::string checkpoint(const Snapshot& snapshot);

  /// Snapshot `system` into the ring; returns its path.
  std::string checkpoint(const core::FadewichSystem& system);

  /// The checkpoint cadence: checkpoint when system.tick() is a multiple
  /// of checkpoint_period.  Returns true when it wrote.  Keyed to the
  /// pipeline's tick, not to calls, so a restored pipeline keeps the
  /// same checkpoint ticks.
  bool checkpoint_if_due(const core::FadewichSystem& system);

  /// Import the newest snapshot that loads and that `into` accepts,
  /// falling back across the ring: a file that fails to load or to
  /// import is rejected with its reason and the next older one is tried.
  /// Returns the imported snapshot, or nullopt (cold start, `into`
  /// unchanged) when no file fits; never throws for bad snapshot data.
  /// `report` is overwritten with what happened.  The manager logs
  /// nothing: its owner turns the report into records (log_recovery).
  std::optional<Snapshot> recover(core::FadewichSystem& into,
                                  RecoveryReport& report);

  /// Paths of the retained snapshots, oldest first.
  std::vector<std::string> ring() const;

  std::uint64_t checkpoints_written() const { return checkpoints_written_; }

  /// The restart budget: count one restart attempt and return true, or
  /// return false (counting nothing) once max_restarts attempts were
  /// made.  The owner then retires its unit.
  bool try_restart();
  /// Restart attempts counted so far.
  std::uint64_t restarts() const { return restarts_; }

  /// Append this manager's checkpoint and recover() wall-time
  /// histograms to `report` (sampled while obs::enabled()).
  void scrape_into(obs::ScrapeReport& report) const;

 private:
  std::optional<Snapshot> walk_ring(core::FadewichSystem& into,
                                    RecoveryReport& out) const;

  RecoveryConfig config_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t restarts_ = 0;
  obs::HistogramSample checkpoint_seconds_{obs::default_bucket_bounds()};
  obs::HistogramSample recover_seconds_{obs::default_bucket_bounds()};
};

/// One restartable unit (a supervised pipeline, a fleet office) as the
/// scrape shows it.  Its owner restores it after a fault until its
/// manager's try_restart() refuses, then retires it.
struct UnitHealth {
  std::string name;
  std::uint64_t restarts = 0;
  bool retired = false;
};

/// The scrape's "supervisor" block: modules, total_restarts and
/// all_healthy, then per unit <name>_status (0 healthy, 2 retired) and
/// <name>_restarts.
obs::HealthBlock health_block(std::span<const UnitHealth> units);

}  // namespace fadewich::persist
