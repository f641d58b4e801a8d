// Campus-scale fleet: N independent office shards stepped in lockstep
// blocks on the work-stealing pool, supervised as a unit, and scraped as
// one observability document.
//
// Execution model.  run_week() advances every shard to a common tick
// boundary per block via parallel_for, then — serially, on the fleet
// thread — heartbeats healthy shards, reports faulted ones, and polls
// the supervisor (Supervisor is not thread-safe; supervision cost is
// O(offices) per block via the name index).  A shard's restart callback
// restores its newest snapshot (or cold-starts as a last resort) and
// replays forward to the current boundary, which the stateless per-tick
// driver makes exact: recovery of one shard cannot perturb any neighbor,
// and the recovered shard's own outputs past the snapshot are the same
// bytes it would have produced without the crash.
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
#include "fadewich/persist/supervisor.hpp"

namespace fadewich::fleet {

struct FleetConfig {
  std::size_t offices = 16;
  std::uint64_t seed = 0xFADE'2017'0001ull;
  /// Template applied to every office.  shard.block_ticks is also the
  /// fleet's block quantum: shards run this far between supervision passes.
  ShardConfig shard;

  /// Root directory for per-office snapshot rings.  Empty disables
  /// persistence and supervision entirely (the 10k-office bench sweeps
  /// run unsupervised; recovery is exercised on small fleets).
  std::string snapshot_root;
  Tick checkpoint_period = 500;  // ticks between shard checkpoints
  persist::SupervisorConfig supervisor;  // stall_ticks raised to 2 blocks

  /// Mint per-office labeled series (fadewich_fleet_office_*{office="i"})
  /// while the fleet is at or under the cardinality cap; above it only
  /// the fleet aggregates are exported.
  bool per_office_series = true;
  std::size_t per_office_series_cap = 512;
};

/// One run_week() summary, for benches and the merged scrape.
struct RunStats {
  Tick ticks = 0;              // ticks advanced per shard this run
  double wall_seconds = 0.0;
  double ticks_per_sec = 0.0;  // total shard-ticks / wall
  double offices_per_sec = 0.0;  // offices advanced the full run / wall
  std::size_t restarts = 0;    // supervisor restarts during the run
};

class Fleet {
 public:
  /// Builds all shards (in parallel on `pool`) and, when snapshot_root
  /// is set, wires each one into the fleet supervisor.  `pool` defaults
  /// to the process-wide pool; the fleet does not own it.
  explicit Fleet(FleetConfig config, exec::ThreadPool* pool = nullptr);

  std::size_t offices() const { return shards_.size(); }
  Tick tick() const { return cursor_; }
  bool supervised() const { return supervisor_ != nullptr; }

  /// Advance every office by `ticks` in lockstep blocks.  Returns the
  /// run's throughput stats (also retained for scrape()).
  RunStats run_week(Tick ticks);

  /// Arm a one-shot crash in office `office` at absolute tick `tick`
  /// (must be ahead of the current cursor).  The fleet supervisor
  /// recovers it on the next supervision pass.
  void inject_crash(std::size_t office, Tick tick);

  const OfficeShard& shard(std::size_t office) const;

  /// CRC-32 fold of every shard digest in index order.
  std::uint32_t fleet_digest() const;
  std::uint32_t shard_digest(std::size_t office) const;

  std::uint64_t total_deauths() const;
  std::uint64_t total_spurious_deauths() const;
  std::uint64_t total_restarts() const;

  /// Mean fleet-layer bytes per office (staged blocks + arenas + shard
  /// objects); the bench trends this across the 10 -> 10k sweep.
  double memory_bytes_per_office() const;

  /// Supervisor view; empty report when the fleet is unsupervised.
  persist::HealthReport supervisor_health() const;

  /// One merged scrape: the global metrics snapshot (fleet aggregates
  /// plus per-office labeled series when minted), a "fleet" HealthBlock
  /// (offices, cursor, deauth totals, last-run throughput, p99 deauth
  /// latency, bytes per office), and the supervisor block when present.
  obs::ScrapeReport scrape() const;

 private:
  std::string module_name(std::size_t office) const;
  void supervise(Tick boundary, std::size_t* restarts);

  FleetConfig config_;
  exec::ThreadPool* pool_;
  std::vector<std::unique_ptr<OfficeShard>> shards_;
  std::unique_ptr<persist::Supervisor> supervisor_;

  Tick cursor_ = 0;           // common boundary all healthy shards reached
  Tick current_boundary_ = 0; // restart callbacks replay up to here
  RunStats last_run_;

  obs::Histogram fleet_latency_;  // shared by all shards: fleet-wide p99
};

}  // namespace fadewich::fleet
