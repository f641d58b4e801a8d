// The wire -> fleet bridge: gives the campus a real front door.
//
// The ingest plane (net::IngestPlane) delivers each office's share of a
// capture as a tick-ordered measurement stream; this bridge runs one
// CentralStation per office over that stream (its allocation-free
// RowSink path), buffers the released rows, and exposes them as
// an OfficeShard RowSource — so a shard steps over wire-decoded RSSI
// instead of its synthetic driver, while the occupancy script keeps
// supplying input events and ground-truth accounting.
//
// Contracts:
//   * bridge office i consumes plane shard i; the per-shard sink is
//     called for different offices concurrently but never for one
//     office concurrently (the plane guarantees both).
//   * capture tick t maps to shard tick t.  A tick the capture never
//     completes is filled by repeating the previous row (zeros before
//     any row) and counted in gap_rows — deterministic in the stream
//     content alone, so bridged replay stays bit-identical at any lane
//     count.
//   * rows stay buffered after a shard reads them (trim explicitly via
//     trim_before) because supervised recovery re-reads replayed tick
//     ranges; a RowSource that forgets rows breaks exact replay.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/ingest_plane.hpp"

namespace fadewich::fleet {

struct BridgeConfig {
  std::size_t offices = 1;
  /// Radios per office; streams per office = devices * (devices - 1),
  /// and bridge stream s is station stream s (stream_index order).
  std::size_t devices = 3;
  /// Per-office assembly config.  Without a `now`, the station clock is
  /// the stream's newest tick: an incomplete row is imputed once the
  /// stream is deadline_ticks past it.  max_pending only matters on
  /// corrupt input.
  net::StationConfig station;
};

class IngestBridge {
 public:
  /// Invalid configs throw fadewich::Error.
  explicit IngestBridge(BridgeConfig config);

  std::size_t offices() const { return config_.offices; }
  std::size_t streams() const {
    return config_.devices * (config_.devices - 1);
  }

  /// The plane sink feeding this bridge: shard index == office index.
  net::IngestPlane::Sink sink();

  /// Feed one office's next ordered batch (what sink() forwards to).
  void ingest(std::size_t office, std::span<const net::Measurement> batch);

  /// Declare end-of-stream.  Nothing is left to flush: a complete row
  /// leaves at the end of the ingest call that completed it, and an
  /// incomplete final row stays held, like any row inside its deadline.
  void finish() {}

  /// Ticks [0, result) have buffered rows for this office — the highest
  /// boundary its shard may run_until.
  Tick rows_ready_through(std::size_t office) const;

  /// Point `shard` at this bridge's rows for `office`.  Throws if the
  /// shard's stream count differs from streams().  The shard must only
  /// be stepped to rows_ready_through(office); reading further throws
  /// (a sequencing bug, not an input error).
  void attach(OfficeShard& shard, std::size_t office);

  /// Drop buffered rows before `tick` (after every consumer, including
  /// possible recovery replay, has moved past them).
  void trim_before(std::size_t office, Tick tick);

  const net::StationHealth& health(std::size_t office) const;
  /// Ticks synthesised by gap fill for one office.
  std::uint64_t gap_rows(std::size_t office) const;

 private:
  struct Office {
    std::unique_ptr<net::CentralStation> station;
    std::vector<double> rows;   // ready rows, stream-major per tick
    Tick base_tick = 0;         // tick of rows[0 .. streams)
    Tick next_tick = 0;         // first tick not yet buffered
    std::uint64_t gap_rows = 0;
  };

  Office& at(std::size_t office);
  const Office& at(std::size_t office) const;
  void append_row(Office& office, const net::StationRow& row);

  BridgeConfig config_;
  std::vector<Office> offices_;
};

}  // namespace fadewich::fleet
