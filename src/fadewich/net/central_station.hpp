// The central station: assembles per-tick measurement reports into the
// m x (m-1) synchronised stream rows MD reads.
//
// The paper assumes every stream reports every tick; this station does
// not.  Rows under assembly live in a small tick-sorted pool of reusable
// slots, grown on demand and bounded by max_pending, and one rule
// releases them (DESIGN §10).  The clock is the caller's `now`, or else
// the newest tick accepted.  Release is decided after each batch — and,
// without `now`, at each advance of the clock.  A complete row leaves at
// the first decision; an incomplete one once clock - tick >=
// deadline_ticks, its missing cells imputed from the stream's last
// released value and flagged stale.  Rows leave in tick order.  A full
// pool evicts its oldest row under assembly (then its oldest released,
// untaken row), and every degradation is counted in StationHealth, so a
// lossy reporting path degrades output quality instead of aborting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/net/measurement.hpp"
#include "fadewich/net/seq_window.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::net {

struct StationConfig {
  /// An incomplete row is released, imputed, once the station clock is
  /// this many ticks past it.  Requires >= 1.
  Tick deadline_ticks = 1;
  /// Upper bound on rows buffered (under assembly plus released but not
  /// yet taken).  The oldest row is evicted on overflow.  Requires >= 1.
  std::size_t max_pending = 1024;
};

/// One released row.  `valid[s]` is true when stream s actually reported
/// for this tick; false cells carry the stream's last released value
/// (0 dBm before any release) and should be treated as stale downstream.
struct StationRow {
  Tick tick = 0;
  std::vector<double> values;
  std::vector<std::uint8_t> valid;
  std::size_t missing = 0;

  bool complete() const { return missing == 0; }
};

/// Degradation counters.  Resettable per reporting interval via reset();
/// the station separately keeps monotone lifetime eviction/imputation
/// totals (CentralStation::lifetime_evictions()/lifetime_imputed_cells())
/// so scrapers that expect never-decreasing counters survive a reset.
struct StationHealth {
  std::uint64_t reports = 0;             // measurements ingested
  std::uint64_t duplicates = 0;          // repeat (tick, stream) reports
  std::uint64_t late_reports = 0;        // tick already released/evicted
  std::uint64_t evictions = 0;           // rows dropped by the capacity cap
  std::uint64_t incomplete_releases = 0; // rows released past the deadline
  std::uint64_t imputed_cells = 0;       // sum of imputed_per_stream
  std::uint64_t duplicates_rejected = 0; // exact repeats dropped unapplied
  std::uint64_t malformed = 0;           // out-of-range device ids / ticks
  std::vector<std::uint64_t> imputed_per_stream;

  /// Zero every counter; imputed_per_stream keeps its size.
  void reset();
};

/// Flatten a health block for obs::ScrapeReport (per-stream imputation is
/// summarised as its max, not expanded per stream).
obs::HealthBlock health_block(const StationHealth& health);

// Cache-line aligned: the ingest plane feeds the stations of different
// offices from different threads, and one station's per-batch writes
// must not share a line with its neighbour's.
class alignas(64) CentralStation {
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

  /// Apply a batch and release rows by the station rule.  Returns the
  /// ticks that are released, not yet taken, and have no older row
  /// still held — in tick order, so consumers always see a monotone
  /// stream.  Rows are fetched with take_row().  Reports for ticks
  /// already released or evicted are counted late and discarded; no
  /// runtime input aborts.
  std::vector<Tick> ingest(std::span<const Measurement> batch,
                           std::optional<Tick> now = std::nullopt);

  /// Fetch and discard the released row for a tick.  Returns nullopt if
  /// the tick is unknown, still incomplete, or already taken — callers
  /// decide how to recover; the station never aborts on runtime input.
  std::optional<StationRow> take_row(Tick tick);

  /// A released-row consumer.  The row reference is valid only for the
  /// duration of the call — the station reuses its storage.
  using RowSink = std::function<void(const StationRow&)>;

  /// The same engine, with each row handed to `on_row` the moment it may
  /// leave instead of staged for take_row(): no copy, and after warm-up
  /// no allocation.  Returns the rows emitted.
  std::size_t ingest(std::span<const Measurement> batch,
                     const RowSink& on_row,
                     std::optional<Tick> now = std::nullopt);

  /// Rows currently buffered (under assembly + released, untaken).
  std::size_t buffered_count() const { return held_; }

  const StationHealth& health() const { return health_; }

  /// Zero the resettable health block (lifetime totals are untouched).
  void reset_health() { health_.reset(); }

  /// Monotone lifetime totals, unaffected by reset_health().
  std::uint64_t lifetime_evictions() const { return lifetime_evictions_; }
  std::uint64_t lifetime_imputed_cells() const { return lifetime_imputed_; }

 private:
  struct Slot {
    StationRow row;  // row.valid marks the cells reported so far
    std::size_t filled = 0;
    bool released = true;  // false only while held and under assembly
  };

  std::size_t assemble(std::span<const Measurement> batch,
                       std::optional<Tick> now, const RowSink* on_row);
  Slot* slot_for(Tick tick, bool clocked, const RowSink* on_row,
                 std::size_t& emitted);
  std::size_t settle(Tick clock, const RowSink* on_row);
  std::size_t find(Tick tick) const;
  Slot& open_slot(Tick tick);
  void retire(std::size_t first, std::size_t count);
  void release(Slot& slot);
  void evict_oldest();

  std::size_t device_count_;
  StationConfig config_;
  // [0, held_): the rows held, in ascending tick order; the rest are
  // spares that keep their buffers.  Grown on demand.
  std::vector<Slot> slots_;
  std::size_t held_ = 0;
  std::size_t last_ = 0;  // slot the last report went to
  std::vector<double> last_value_;   // per-stream imputation source
  // One anti-replay window per stream over tick numbers: an exact repeat
  // of an already-applied (tick, stream) report — a duplicated frame on
  // the wire, or FaultInjector's duplicate taxon — is told apart from a
  // straggling loss when it arrives after its row has left.
  std::vector<SeqWindow> seen_ticks_;
  Tick newest_ = -1;     // newest tick accepted: the clock without `now`
  Tick watermark_ = -1;  // highest tick released or evicted
  StationHealth health_;
  std::uint64_t lifetime_evictions_ = 0;
  std::uint64_t lifetime_imputed_ = 0;
};

}  // namespace fadewich::net
