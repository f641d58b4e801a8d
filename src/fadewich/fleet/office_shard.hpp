// One office of the campus fleet: a self-contained FADEWICH pipeline
// plus the deterministic synthetic occupancy script that drives it.
//
// The shard is a cache-friendly flat block: RSSI rows are staged in one
// FlatMatrix reused block after block, per-block scratch comes from the
// shard's own ScratchArena, and all accumulated outputs are a handful of
// counters plus a CRC-32 digest — so stepping a shard touches one
// contiguous working set and performs no steady-state allocations.
//
// Determinism is the load-bearing property.  The driver is *stateless
// per tick*: every RSSI sample and input event is a pure function of
// (shard seed, tick index), drawn through splitmix mixing rather than a
// sequential generator.  Consequences:
//   * shard outputs never depend on which pool thread ran the shard or
//     how blocks were sized — a fleet week is bit-identical at any
//     FADEWICH_THREADS;
//   * a shard restored from a snapshot replays the exact tick range it
//     lost, so supervised recovery is exact and local to the shard;
//   * shard i's output stream is independent of how many other offices
//     the fleet holds (its seed derives from (fleet seed, i) alone).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/flat_matrix.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/time.hpp"
#include "fadewich/core/system.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/persist/recovery.hpp"

namespace fadewich::fleet {

/// Per-office template.  The defaults mirror the proven synthetic
/// harness office (4 streams, 2 workstations, short MD windows) so a
/// shard trains and goes online in a few hundred simulated seconds.
struct ShardConfig {
  std::size_t streams = 4;
  std::size_t workstations = 2;
  std::size_t block_ticks = 64;  // rows staged per run_until block, >= 1
  core::SystemConfig system;     // defaulted by default_shard_system()

  // Occupancy script, in seconds.  One cycle per workstation:
  // leave burst -> away -> enter burst -> seated typing.
  double settle = 20.0;  // initial all-seated typing (covers calibration)
  double burst = 6.0;    // movement burst on a leave or enter
  double away = 25.0;    // absence after a leave (> labeler long_idle)
  double rest = 20.0;    // seated typing after an enter
  std::size_t train_rounds = 4;  // full cycles before finish_training()
};

/// The system configuration the default ShardConfig assumes: 5 Hz ticks,
/// 2 s MD windows, 15 s calibration, a small profile, 20 s long-idle.
core::SystemConfig default_shard_system();

/// Registry handles a shard observes into; left default (no-op) for
/// shards nobody scrapes.  Event counts live in the shard itself
/// (deauths(), spurious_deauths()).
struct ShardMetrics {
  obs::Histogram deauth_latency;  // seconds from leave start to deauth
};

class OfficeShard {
 public:
  /// `seed` should come from exec::task_seed(fleet_seed, index) so shard
  /// streams are decorrelated and independent of the fleet size.
  OfficeShard(std::size_t index, std::uint64_t seed, ShardConfig config);

  std::size_t index() const { return index_; }
  std::size_t streams() const { return config_.streams; }
  Tick tick() const { return system_.tick(); }
  bool training() const { return system_.training(); }

  void set_metrics(ShardMetrics metrics) { metrics_ = metrics; }

  /// External RSSI driver — the ingestion bridge's hook.  When set,
  /// fill_block() asks the source for each staged block instead of
  /// synthesising samples: source(from, count, block) must write
  /// `count` rows of `streams` values for ticks [from, from + count).
  /// Only the RSSI synthesis is replaced — the occupancy script still
  /// supplies input events and ground-truth accounting.  The source
  /// must be a deterministic function of the tick range (like sample())
  /// or snapshot recovery loses its exact-replay property.
  using RowSource = std::function<void(Tick from, std::size_t count,
                                       common::FlatMatrix& block)>;
  void set_row_source(RowSource source) {
    row_source_ = std::move(source);
  }

  /// Attach a snapshot ring: the shard checkpoints on the ring's cadence
  /// and can restart() after a fault.  Must be called before the first
  /// run_until().
  void enable_persistence(persist::RecoveryConfig recovery);

  /// Advance the pipeline to `boundary` ticks (no-op when already
  /// there).  On an internal or injected fault the shard stops at the
  /// failing tick with faulted() set; it never throws across this
  /// boundary — the fleet decides whether to recover or retire it.
  void run_until(Tick boundary);

  bool faulted() const { return faulted_; }
  const std::string& fault_what() const { return fault_what_; }

  /// Arm a one-shot injected crash: the step at `tick` throws.  The
  /// trigger disarms once fired, so a recovered shard replays past it.
  void kill_at(Tick tick) { kill_tick_ = tick; }

  /// Restart a faulted shard while its ring's restart budget lasts:
  /// restore the newest snapshot that fits, else rebuild the pipeline
  /// from tick 0 (a last resort that still converges, since the driver
  /// is stateless).  Clears the fault flag.  False, leaving the shard
  /// faulted and `report` untouched, when the shard has no ring or the
  /// budget is spent; otherwise `report` holds what recovery saw.
  bool restart(persist::RecoveryReport& report);

  // --- Accumulated outputs -------------------------------------------
  /// CRC-32 over every RSSI row, MD state, action, and classification
  /// the shard produced, in tick order.  Two shards with equal digests
  /// ran bit-identical weeks.
  std::uint32_t digest() const { return digest_.value(); }
  std::uint64_t deauths() const { return deauths_; }
  std::uint64_t spurious_deauths() const { return spurious_deauths_; }
  std::uint64_t alerts() const { return alerts_; }
  /// Restart attempts so far; 0 for a shard without a ring.
  std::uint64_t restores() const {
    return recovery_ != nullptr ? recovery_->restarts() : 0;
  }

  /// Bytes of shard-owned flat state: the staged block, the scratch
  /// arena's reservation, and the shard object itself.  (The pipeline's
  /// internal model state is excluded — this is the fleet-layer
  /// footprint the bench trends as bytes-per-office.)
  std::size_t memory_bytes() const;

 private:
  double sample(Tick tick, std::size_t stream) const;
  void fill_block(Tick from, Tick count);
  void step_tick(Tick tick, std::size_t row);
  void account(Tick tick, const core::FadewichSystem::StepResult& result);

  // Script geometry, all in ticks.
  struct Script {
    Tick settle = 0;
    Tick burst = 0;
    Tick away = 0;
    Tick rest = 0;
    Tick cycle = 0;        // burst + away + burst + rest
    Tick round = 0;        // cycle * workstations
    Tick train_end = 0;    // settle + train_rounds * round
  };
  /// Which workstation (if any) is mid-cycle at `tick`, and where.
  struct Phase {
    bool settled = true;            // settle prelude: everyone seated
    std::size_t workstation = 0;    // cycle owner
    Tick offset = 0;                // ticks into the owner's cycle
    Tick leave_start = 0;           // absolute tick the leave burst began
  };
  Phase phase_at(Tick tick) const;
  bool seated(const Phase& p, std::size_t workstation) const;
  bool bursting(const Phase& p, std::size_t stream) const;

  std::size_t index_;
  std::uint64_t seed_;
  ShardConfig config_;
  Script script_;
  double tick_hz_;

  core::FadewichSystem system_;
  RowSource row_source_;          // external RSSI driver, else sample()
  common::FlatMatrix block_;      // block_ticks x streams staging rows
  common::ScratchArena arena_;
  ShardMetrics metrics_;

  std::unique_ptr<persist::RecoveryManager> recovery_;

  std::optional<Tick> kill_tick_;
  bool faulted_ = false;
  std::string fault_what_;

  Crc32 digest_;
  std::uint64_t deauths_ = 0;
  std::uint64_t spurious_deauths_ = 0;
  std::uint64_t alerts_ = 0;
};

}  // namespace fadewich::fleet
