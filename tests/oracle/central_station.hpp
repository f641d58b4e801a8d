// Test oracle: the central station as it stood before its assembly
// engine was unified — a std::map-backed generic path (rows held in
// strict mode until complete, or released on a `now`-driven deadline)
// plus the ordered fast path (one in-place assembly row, released
// incomplete when a newer tick arrives).
//
// net::CentralStation must reproduce it: with a deadline >= 1 and `now`
// every call, the generic path's released rows, health and lifetime
// totals; for tick-non-decreasing streams without `now`, what
// ingest_ordered + finish_ordered emit.  Moved verbatim from
// src/fadewich/net minus the MessageBus overload and the obs counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/net/central_station.hpp"
#include "fadewich/net/measurement.hpp"
#include "fadewich/net/seq_window.hpp"

namespace fadewich::oracle {

using net::DeviceId;
using net::Measurement;
using net::SeqWindow;
using net::StationConfig;
using net::StationHealth;
using net::StationRow;

class CentralStation {
 public:
  /// `device_count` radios; streams are all ordered (tx, rx) pairs in
  /// row-major order (matching rf::ChannelMatrix).  Requires >= 2.
  explicit CentralStation(std::size_t device_count,
                          StationConfig config = {});

  std::size_t device_count() const { return device_count_; }
  std::size_t stream_count() const {
    return device_count_ * (device_count_ - 1);
  }
  const StationConfig& config() const { return config_; }

  std::size_t stream_index(DeviceId tx, DeviceId rx) const;

  /// Inverse of stream_index: the (tx, rx) pair of a stream.
  std::pair<DeviceId, DeviceId> stream_pair(std::size_t stream) const;

  /// Ingest a batch.  Returns the ticks that are released, not yet
  /// taken, and *in order* — a released tick is reported only once no
  /// older tick is still under assembly.  Rows are fetched with
  /// take_row().  A row is released when every stream reported, or — if
  /// `now` is supplied and a deadline is configured — when
  /// `now - tick >= deadline_ticks` (missing cells are imputed and
  /// flagged).  Reports for already-released ticks are counted late and
  /// discarded.
  std::vector<Tick> ingest(std::span<const Measurement> batch,
                           std::optional<Tick> now = std::nullopt);

  /// Fetch and discard the released row for a tick.  Returns nullopt if
  /// the tick is unknown, still incomplete, or already taken — callers
  /// decide how to recover; the station never aborts on runtime input.
  std::optional<StationRow> take_row(Tick tick);

  /// A completed-row consumer for the ordered fast path.  The row
  /// reference is valid only for the duration of the call — the station
  /// reuses its storage for the next row.
  using RowSink = std::function<void(const StationRow&)>;

  /// Ordered-batch fast path: ingest a measurement stream whose ticks
  /// are non-decreasing (the sharded ingest plane's per-shard contract),
  /// handing each completed row to `on_row` the moment a newer tick
  /// arrives.  This skips the per-measurement map lookups and per-row
  /// allocations of the generic path: one reusable assembly row is
  /// filled in place and emitted by callback, never staged in the
  /// released map.  For clean tick-ordered input in strict mode it
  /// delivers exactly the rows the generic path would (verified by
  /// test), except that the final tick is held until the next call
  /// advances past it or finish_ordered() declares end-of-stream —
  /// emission timing depends only on the measurement sequence, never on
  /// batch boundaries, which is what keeps sharded replay bit-identical
  /// at any lane count.  One documented divergence: when a strictly
  /// newer tick arrives while the assembly row is still incomplete (a
  /// frame was lost upstream), the ordered contract says no more
  /// reports for that row are coming, so it is released incomplete with
  /// last-known-value imputation — the same taxonomy a one-tick
  /// deadline applies — where the strict generic path would buffer it
  /// until eviction pressure.  Holding it would stall every later row
  /// behind the monotone-release gate for the rest of the capture.
  /// Deadline-configured stations, carried-over pending/released state,
  /// and tick regressions all fall back to the generic path (full
  /// semantics, no ordering assumed).  Returns rows emitted.
  std::size_t ingest_ordered(std::span<const Measurement> batch,
                             const RowSink& on_row,
                             std::optional<Tick> now = std::nullopt);

  /// Declare end-of-stream for the ordered path: a live complete
  /// assembly row is emitted; a live incomplete one is spilled to the
  /// generic pending map (where strict mode holds it, exactly as the
  /// generic path would).  Returns rows emitted (0 or 1).
  std::size_t finish_ordered(const RowSink& on_row);

  /// Rows currently buffered (pending assembly + released, untaken,
  /// plus the ordered path's live assembly row).
  std::size_t buffered_count() const {
    return pending_.size() + released_.size() + (assembly_live_ ? 1 : 0);
  }

  const StationHealth& health() const { return health_; }

  /// Zero the resettable health block (lifetime totals are untouched).
  void reset_health() { health_.reset(); }

  /// Monotone lifetime totals, unaffected by reset_health().
  std::uint64_t lifetime_evictions() const { return lifetime_evictions_; }
  std::uint64_t lifetime_imputed_cells() const { return lifetime_imputed_; }

 private:
  struct PendingRow {
    std::vector<double> values;
    std::vector<std::uint8_t> present;
    std::size_t filled = 0;
  };

  void release(Tick tick, PendingRow&& row, bool complete);
  void evict_oldest();
  void spill_assembly();
  void emit_assembly(const RowSink& on_row);

  std::size_t device_count_;
  StationConfig config_;
  std::map<Tick, PendingRow> pending_;   // tick-indexed assembly buffers
  std::map<Tick, StationRow> released_;  // released, not yet taken
  std::vector<Measurement> drain_scratch_;  // bus-drain reuse buffer
  std::vector<double> last_value_;       // per-stream imputation source
  // One anti-replay window per stream over tick numbers: an exact repeat
  // of an already-applied (tick, stream) report — a duplicated frame on
  // the wire, or FaultInjector's duplicate taxon — is rejected before it
  // touches (or re-opens) any row.
  std::vector<SeqWindow> seen_ticks_;
  // The ordered fast path's single in-place assembly row (live iff
  // assembly_live_) and the reusable emission buffer it swaps through.
  PendingRow assembly_;
  StationRow emit_row_;
  Tick assembly_tick_ = -1;
  bool assembly_live_ = false;
  Tick release_watermark_ = -1;  // highest tick released or evicted
  StationHealth health_;
  std::uint64_t lifetime_evictions_ = 0;
  std::uint64_t lifetime_imputed_ = 0;
};

}  // namespace fadewich::oracle
