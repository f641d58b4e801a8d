// Campus-scale fleet: N independent office shards stepped in lockstep
// blocks on the work-stealing pool, restarted after faults, and scraped
// as one observability document.
//
// Execution model.  run_week() advances every shard to a common tick
// boundary per block via parallel_for, then — serially, on the fleet
// thread, O(offices) per block — restarts each faulted shard: it
// restores the shard's newest fitting snapshot (or cold-starts as a last
// resort) and replays forward to the boundary, which the stateless
// per-tick driver makes exact: recovery of one shard cannot perturb any
// neighbor, and the recovered shard's own outputs past the snapshot are
// the same bytes it would have produced without the crash.  A shard that
// faults with its `max_restarts` attempts spent, or faults again while
// replaying, is retired: it stays parked at its failing tick.
//
// Determinism.  Shard i's seed is task_seed(fleet seed, i), so its
// stream is a function of (fleet seed, i) alone — independent of fleet
// size, thread count, and block scheduling.  fleet_digest() folds the
// per-shard CRCs in index order; equal digests mean bit-identical weeks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::fleet {

struct FleetConfig {
  std::size_t offices = 16;
  std::uint64_t seed = 0xFADE'2017'0001ull;
  /// Template applied to every office.  shard.block_ticks is also the
  /// fleet's block quantum: shards run this far between restart passes.
  ShardConfig shard;

  /// Snapshot-ring template for every office.  `recovery.directory` is
  /// the root of the per-office rings; empty disables persistence and
  /// restarts entirely (the 10k-office bench sweeps run unsupervised;
  /// recovery is exercised on small fleets).
  persist::RecoveryConfig recovery;
};

/// One run_week() summary, for benches and the merged scrape.
struct RunStats {
  Tick ticks = 0;              // ticks advanced per shard this run
  double wall_seconds = 0.0;
  double ticks_per_sec = 0.0;  // total shard-ticks / wall
  double offices_per_sec = 0.0;  // offices advanced the full run / wall
  std::size_t restarts = 0;    // shard restarts during the run
};

class Fleet {
 public:
  /// Builds all shards (in parallel on `pool`) and, when
  /// recovery.directory is set, gives each one a snapshot ring.  `pool`
  /// defaults to the process-wide pool; the fleet does not own it.
  explicit Fleet(FleetConfig config, exec::ThreadPool* pool = nullptr);

  std::size_t offices() const { return shards_.size(); }
  Tick tick() const { return cursor_; }
  bool supervised() const { return !config_.recovery.directory.empty(); }

  /// Advance every office by `ticks` in lockstep blocks.  Returns the
  /// run's throughput stats (also retained for scrape()).
  RunStats run_week(Tick ticks);

  /// Arm a one-shot crash in office `office` at absolute tick `tick`
  /// (must be ahead of the current cursor).  A supervised fleet
  /// restarts it at the end of that block.
  void inject_crash(std::size_t office, Tick tick);

  const OfficeShard& shard(std::size_t office) const;

  /// True once the office faulted past its restart budget (or faulted
  /// again while replaying); always false when unsupervised.
  bool retired(std::size_t office) const;

  /// CRC-32 fold of every shard digest in index order.
  std::uint32_t fleet_digest() const;
  std::uint32_t shard_digest(std::size_t office) const;

  std::uint64_t total_deauths() const;
  std::uint64_t total_spurious_deauths() const;
  /// Sum of every shard's restores(): one per restart attempt.
  std::uint64_t total_restarts() const;

  /// Mean fleet-layer bytes per office (staged blocks + arenas + shard
  /// objects); the bench trends this across the 10 -> 10k sweep.
  double memory_bytes_per_office() const;

  /// This fleet's event log: each snapshot an office restart rejected,
  /// with the office's index, path and reason.  events().set_sink()
  /// streams records to a JSONL file.
  obs::EventLog& events() { return events_; }

  /// One merged scrape: this fleet's deauth-latency histogram, a "fleet"
  /// HealthBlock (offices, cursor, deauth totals, last-run throughput,
  /// p99 deauth latency, bytes per office, and per-office
  /// office_<i>_{deauths,spurious_deauths} for fleets of at most
  /// obs::kPerUnitHealthCap offices), when supervised the "supervisor"
  /// block of per-office restarts and retirements, and this fleet's own
  /// recent events.
  obs::ScrapeReport scrape() const;

 private:
  std::size_t restart_faulted(Tick boundary);

  FleetConfig config_;
  exec::ThreadPool* pool_;
  std::vector<std::unique_ptr<OfficeShard>> shards_;
  std::vector<bool> retired_;  // per office; empty when unsupervised

  Tick cursor_ = 0;  // common boundary all healthy shards reached
  RunStats last_run_;

  obs::MetricsRegistry metrics_;  // this fleet's multi-writer histograms
  obs::Histogram fleet_latency_;  // shared by all shards: fleet-wide p99
  obs::EventLog events_;          // office restarts' rejected snapshots
};

}  // namespace fadewich::fleet
