#include "fadewich/fleet/ingest_bridge.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"

namespace fadewich::fleet {

IngestBridge::IngestBridge(BridgeConfig config) : config_(config) {
  if (config_.offices < 1) {
    throw Error("ingest bridge: offices must be >= 1");
  }
  if (config_.devices < 2) {
    throw Error("ingest bridge: devices must be >= 2");
  }
  offices_.resize(config_.offices);
  for (Office& office : offices_) {
    office.station = std::make_unique<net::CentralStation>(
        config_.devices, config_.station);
  }
}

IngestBridge::Office& IngestBridge::at(std::size_t office) {
  if (office >= offices_.size()) {
    throw Error("ingest bridge: office index out of range");
  }
  return offices_[office];
}

const IngestBridge::Office& IngestBridge::at(std::size_t office) const {
  if (office >= offices_.size()) {
    throw Error("ingest bridge: office index out of range");
  }
  return offices_[office];
}

void IngestBridge::append_row(Office& office, const net::StationRow& row) {
  const std::size_t width = streams();
  if (row.tick < office.next_tick) return;  // stale (defensive; ordered
                                            // emission is monotone)
  // Gap fill: repeat the previous row (zeros before any) for ticks the
  // capture never completed, so shard tick t always reads a row and the
  // fill depends only on the delivered stream, never on lane count.
  while (office.next_tick < row.tick) {
    const std::size_t n = office.rows.size();
    if (n >= width) {
      office.rows.resize(n + width);
      std::copy_n(office.rows.begin() + static_cast<std::ptrdiff_t>(
                      n - width),
                  width,
                  office.rows.begin() + static_cast<std::ptrdiff_t>(n));
    } else {
      office.rows.resize(width, 0.0);
    }
    ++office.gap_rows;
    ++office.next_tick;
  }
  office.rows.insert(office.rows.end(), row.values.begin(),
                     row.values.end());
  ++office.next_tick;
}

net::IngestPlane::Sink IngestBridge::sink() {
  return [this](std::size_t shard,
                std::span<const net::Measurement> batch) {
    ingest(shard, batch);
  };
}

void IngestBridge::ingest(std::size_t office,
                          std::span<const net::Measurement> batch) {
  Office& o = at(office);
  o.station->ingest(
      batch, [this, &o](const net::StationRow& row) { append_row(o, row); });
}

Tick IngestBridge::rows_ready_through(std::size_t office) const {
  return at(office).next_tick;
}

void IngestBridge::attach(OfficeShard& shard, std::size_t office) {
  Office& o = at(office);
  const std::size_t width = streams();
  if (shard.streams() != width) {
    throw Error("ingest bridge: shard streams != devices * (devices-1)");
  }
  shard.set_row_source([this, &o, width](Tick from, std::size_t count,
                                         common::FlatMatrix& block) {
    for (std::size_t i = 0; i < count; ++i) {
      const Tick tick = from + static_cast<Tick>(i);
      if (tick < o.base_tick || tick >= o.next_tick) {
        throw Error(
            "ingest bridge: shard stepped past rows_ready_through");
      }
      const std::size_t at_row =
          static_cast<std::size_t>(tick - o.base_tick) * width;
      double* out = block.row(i);
      std::copy_n(o.rows.begin() + static_cast<std::ptrdiff_t>(at_row),
                  width, out);
    }
  });
}

void IngestBridge::trim_before(std::size_t office, Tick tick) {
  Office& o = at(office);
  const Tick cut = std::min(tick, o.next_tick);
  if (cut <= o.base_tick) return;
  const std::size_t drop =
      static_cast<std::size_t>(cut - o.base_tick) * streams();
  o.rows.erase(o.rows.begin(),
               o.rows.begin() + static_cast<std::ptrdiff_t>(drop));
  o.base_tick = cut;
}

const net::StationHealth& IngestBridge::health(std::size_t office) const {
  return at(office).station->health();
}

std::uint64_t IngestBridge::gap_rows(std::size_t office) const {
  return at(office).gap_rows;
}

}  // namespace fadewich::fleet
