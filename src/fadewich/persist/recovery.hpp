// Snapshot ring + recovery policy.
//
// A RecoveryManager owns a directory of numbered snapshot files
// (`snap-00000042.fdws`).  checkpoint() writes a new snapshot atomically
// and prunes the ring to `ring_size` files; recover() walks the ring
// newest-first, skipping corrupt or version-mismatched files and
// snapshots the pipeline refuses to import (another deployment's shape),
// retrying transient I/O failures with bounded backoff.  It imports the
// newest snapshot that both loads and fits — or reports an explicit cold
// start and leaves the pipeline untouched.  Every restore site (the
// supervised system, fleet shards, the crash-replay harness) goes
// through this one walk.
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
  std::string directory;       // created on demand; must be non-empty
  std::size_t ring_size = 4;   // snapshots retained, >= 1
  std::size_t max_retries = 3; // attempts per file on transient I/O
  double backoff_ms = 10.0;    // sleep between retries, >= 0
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

  /// Import the newest snapshot that loads and that `into` accepts,
  /// falling back across the ring: a file that fails to load or to
  /// import is rejected with its reason and the next older one is tried.
  /// Returns the imported snapshot, or nullopt (cold start, `into`
  /// unchanged) when no file fits; never throws for bad snapshot data.
  /// Details land in *report when non-null.
  std::optional<Snapshot> recover(core::FadewichSystem& into,
                                  RecoveryReport* report = nullptr);

  /// Paths of the retained snapshots, oldest first.
  std::vector<std::string> ring() const;

  std::uint64_t checkpoints_written() const { return checkpoints_written_; }

  /// Append this manager's checkpoint and recover() wall-time
  /// histograms to `report` (sampled while obs::enabled()).
  void scrape_into(obs::ScrapeReport& report) const;

 private:
  std::optional<Snapshot> walk_ring(core::FadewichSystem& into,
                                    RecoveryReport& out) const;

  RecoveryConfig config_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  obs::HistogramSample checkpoint_seconds_{obs::default_bucket_bounds()};
  obs::HistogramSample recover_seconds_{obs::default_bucket_bounds()};
};

/// One restartable unit (a supervised pipeline, a fleet office) as the
/// scrape shows it.  Its owner restores it after a fault until
/// `restarts` reaches the owner's bound, then retires it.
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
