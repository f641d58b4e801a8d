#include "fadewich/net/central_station.hpp"

#include <algorithm>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::net {

namespace {

struct StationMetrics {
  obs::Counter reports = obs::registry().counter(
      "fadewich_net_reports_total", "measurements ingested by the station");
  obs::Counter duplicates = obs::registry().counter(
      "fadewich_net_duplicates_total", "repeat (tick, stream) reports");
  obs::Counter late = obs::registry().counter(
      "fadewich_net_late_reports_total",
      "reports for already-released ticks");
  obs::Counter evictions = obs::registry().counter(
      "fadewich_net_evictions_total", "rows dropped by the capacity cap");
  obs::Counter incomplete = obs::registry().counter(
      "fadewich_net_incomplete_releases_total",
      "rows released past the deadline");
  obs::Counter imputed = obs::registry().counter(
      "fadewich_net_imputed_cells_total",
      "cells filled from last released values");
  obs::Counter duplicates_rejected = obs::registry().counter(
      "fadewich_net_duplicates_rejected_total",
      "exact repeat reports dropped without effect");
  obs::Counter malformed = obs::registry().counter(
      "fadewich_net_malformed_total",
      "reports with impossible device ids or ticks");
  static StationMetrics& get() {
    static StationMetrics metrics;
    return metrics;
  }
};

}  // namespace

void StationHealth::reset() {
  reports = 0;
  duplicates = 0;
  late_reports = 0;
  evictions = 0;
  incomplete_releases = 0;
  imputed_cells = 0;
  duplicates_rejected = 0;
  malformed = 0;
  std::fill(imputed_per_stream.begin(), imputed_per_stream.end(), 0);
}

obs::HealthBlock health_block(const StationHealth& health) {
  obs::HealthBlock block;
  block.name = "station";
  block.add("reports", static_cast<double>(health.reports));
  block.add("duplicates", static_cast<double>(health.duplicates));
  block.add("late_reports", static_cast<double>(health.late_reports));
  block.add("evictions", static_cast<double>(health.evictions));
  block.add("incomplete_releases",
            static_cast<double>(health.incomplete_releases));
  block.add("imputed_cells", static_cast<double>(health.imputed_cells));
  block.add("duplicates_rejected",
            static_cast<double>(health.duplicates_rejected));
  block.add("malformed", static_cast<double>(health.malformed));
  std::uint64_t worst = 0;
  for (const std::uint64_t n : health.imputed_per_stream) {
    worst = std::max(worst, n);
  }
  block.add("max_imputed_per_stream", static_cast<double>(worst));
  return block;
}

CentralStation::CentralStation(std::size_t device_count,
                               StationConfig config)
    : device_count_(device_count), config_(config) {
  // Station configs come from deployment descriptions at runtime, so
  // invalid values throw fadewich::Error (recoverable data error)
  // instead of tripping a contract check.
  if (device_count < 2) {
    throw Error("central station: device_count must be >= 2");
  }
  if (config.deadline_ticks < 1) {
    throw Error("central station: deadline_ticks must be >= 1");
  }
  if (config.max_pending < 1) {
    throw Error("central station: max_pending must be >= 1");
  }
  last_value_.assign(stream_count(), 0.0);
  health_.imputed_per_stream.assign(stream_count(), 0);
  seen_ticks_.assign(stream_count(), SeqWindow{});
}

std::size_t CentralStation::stream_index(DeviceId tx, DeviceId rx) const {
  FADEWICH_EXPECTS(tx < device_count_);
  FADEWICH_EXPECTS(rx < device_count_);
  FADEWICH_EXPECTS(tx != rx);
  return static_cast<std::size_t>(tx) * (device_count_ - 1) +
         (rx < tx ? rx : rx - 1);
}

std::pair<DeviceId, DeviceId> CentralStation::stream_pair(
    std::size_t stream) const {
  FADEWICH_EXPECTS(stream < stream_count());
  const auto tx = static_cast<DeviceId>(stream / (device_count_ - 1));
  auto rx = static_cast<DeviceId>(stream % (device_count_ - 1));
  if (rx >= tx) ++rx;
  return {tx, rx};
}

std::size_t CentralStation::find(Tick tick) const {
  const auto end = slots_.begin() + static_cast<std::ptrdiff_t>(held_);
  const auto it = std::lower_bound(
      slots_.begin(), end, tick,
      [](const Slot& slot, Tick t) { return slot.row.tick < t; });
  if (it != end && it->row.tick == tick) {
    return static_cast<std::size_t>(it - slots_.begin());
  }
  return held_;
}

CentralStation::Slot& CentralStation::open_slot(Tick tick) {
  if (held_ == slots_.size()) slots_.emplace_back();
  Slot& spare = slots_[held_];
  spare.row.tick = tick;
  // Values need no reset: release overwrites every cell not reported.
  spare.row.values.resize(stream_count());
  spare.row.valid.assign(stream_count(), 0);
  spare.filled = 0;
  spare.released = false;
  // Rotate the spare into tick order (a no-op for in-order traffic).
  const auto end = slots_.begin() + static_cast<std::ptrdiff_t>(held_);
  const auto at = std::upper_bound(
      slots_.begin(), end, tick,
      [](Tick t, const Slot& slot) { return t < slot.row.tick; });
  std::rotate(at, end, end + 1);
  ++held_;
  return *at;
}

void CentralStation::retire(std::size_t first, std::size_t count) {
  // Retired slots keep their buffers and become spares.
  const auto begin = slots_.begin() + static_cast<std::ptrdiff_t>(first);
  std::rotate(begin, begin + static_cast<std::ptrdiff_t>(count),
              slots_.begin() + static_cast<std::ptrdiff_t>(held_));
  held_ -= count;
}

void CentralStation::release(Slot& slot) {
  StationRow& row = slot.row;
  slot.released = true;
  row.missing = stream_count() - slot.filled;
  if (row.missing == 0) {
    std::copy(row.values.begin(), row.values.end(), last_value_.begin());
  } else {
    ++health_.incomplete_releases;
    StationMetrics::get().incomplete.inc();
    StationMetrics::get().imputed.add(row.missing);
    for (std::size_t s = 0; s < row.values.size(); ++s) {
      if (row.valid[s]) {
        last_value_[s] = row.values[s];
      } else {
        row.values[s] = last_value_[s];  // last-known-value imputation
        ++health_.imputed_cells;
        ++health_.imputed_per_stream[s];
        ++lifetime_imputed_;
      }
    }
  }
  if (row.tick > watermark_) watermark_ = row.tick;
}

void CentralStation::evict_oldest() {
  // Prefer dropping a row still under assembly; only a caller that never
  // takes released rows forces released evictions.
  std::size_t victim = 0;
  while (victim < held_ && slots_[victim].released) ++victim;
  if (victim == held_) {
    victim = 0;
  } else if (slots_[victim].row.tick > watermark_) {
    watermark_ = slots_[victim].row.tick;
  }
  slots_[victim].released = true;  // closed: no report may reach it
  retire(victim, 1);
  ++health_.evictions;
  ++lifetime_evictions_;
  StationMetrics::get().evictions.inc();
}

std::size_t CentralStation::settle(Tick clock, const RowSink* on_row) {
  const std::size_t streams = stream_count();
  for (std::size_t i = 0; i < held_; ++i) {
    Slot& slot = slots_[i];
    if (!slot.released && (slot.filled == streams ||
                           clock - slot.row.tick >= config_.deadline_ticks)) {
      release(slot);
    }
  }
  if (on_row == nullptr) return 0;
  // The sink takes every released row no held row precedes.
  std::size_t n = 0;
  for (; n < held_ && slots_[n].released; ++n) (*on_row)(slots_[n].row);
  retire(0, n);
  return n;
}

CentralStation::Slot* CentralStation::slot_for(Tick tick, bool clocked,
                                               const RowSink* on_row,
                                               std::size_t& emitted) {
  if (tick > newest_) {
    // Newer than every held row, so accepted into a fresh one.  When
    // this tick is the clock, advancing it is a decision point: rows
    // then depend on the report sequence, not on where batches split.
    newest_ = tick;
    if (clocked) emitted += settle(newest_, on_row);
  } else {
    const std::size_t i = find(tick);
    if (i != held_ && !slots_[i].released) return &slots_[i];
    // A report for a tick already released (or given up on) cannot
    // amend the frozen row: the caller counts it late.
    if (tick <= watermark_) return nullptr;
  }
  while (held_ >= config_.max_pending) evict_oldest();
  return &open_slot(tick);
}

std::size_t CentralStation::assemble(std::span<const Measurement> batch,
                                     std::optional<Tick> now,
                                     const RowSink* on_row) {
  const std::size_t devices = device_count_;
  const std::size_t streams = stream_count();
  const bool clocked = !now.has_value();
  std::size_t emitted = 0;
  // The per-report counters are flushed once per batch: at millions of
  // reports/sec a per-report obs inc() is the dominant station cost.
  std::uint64_t reports = 0, duplicates = 0, rejected = 0, late = 0,
                malformed = 0;
  // Whether the batch may have made a row releasable: a given clock may
  // have moved, and only a lookup (which opens or changes rows) or a
  // completed row can free one otherwise.  A batch that only adds cells
  // to the open row, as small in-order batches do, skips the decision.
  bool unsettled = now.has_value();
  SeqWindow* const seen = seen_ticks_.data();
  // Consecutive reports of one tick, within a batch or across batches,
  // skip the lookup: a slot that is not released is held and open.
  Slot* open = last_ < slots_.size() && !slots_[last_].released
                   ? &slots_[last_]
                   : nullptr;
  for (const Measurement& m : batch) {
    ++reports;
    // Ingest runs on wire-decoded input: a CRC-valid frame can still
    // carry device ids or ticks no deployment produced.  Those reports
    // are counted malformed and dropped — stream_index() is a contract
    // for trusted callers, not a validator for hostile bytes.
    if (m.tx >= devices || m.rx >= devices || m.tx == m.rx || m.tick < 0) {
      ++malformed;
      continue;
    }
    const std::size_t s = static_cast<std::size_t>(m.tx) * (devices - 1) +
                          (m.rx < m.tx ? m.rx : m.rx - 1);
    if (open == nullptr || open->row.tick != m.tick) {
      unsettled = true;
      open = slot_for(m.tick, clocked, on_row, emitted);
      if (open == nullptr) {
        ++late;
        if (seen[s].seen(static_cast<std::uint64_t>(m.tick))) {
          // Not a straggling loss — a repeat of a report this stream
          // already delivered (wire duplicate / injector duplicate).
          ++rejected;
        }
        continue;
      }
    }
    StationRow& row = open->row;
    if (!row.valid[s]) {
      row.valid[s] = 1;
      if (++open->filled == streams) unsettled = true;
      row.values[s] = m.rssi_dbm;
      seen[s].accept(static_cast<std::uint64_t>(m.tick));
    } else {
      ++duplicates;
      if (row.values[s] == m.rssi_dbm) {
        ++rejected;  // exact repeat: dropped without effect
      } else {
        row.values[s] = m.rssi_dbm;  // revised reports keep the latest
      }
    }
  }
  if (open != nullptr) {
    last_ = static_cast<std::size_t>(open - slots_.data());
  }
  if (unsettled) emitted += settle(now.value_or(newest_), on_row);

  health_.reports += reports;
  health_.duplicates += duplicates;
  health_.duplicates_rejected += rejected;
  health_.late_reports += late;
  health_.malformed += malformed;
  StationMetrics& metrics = StationMetrics::get();
  if (reports != 0) metrics.reports.add(reports);
  if (duplicates != 0) metrics.duplicates.add(duplicates);
  if (rejected != 0) metrics.duplicates_rejected.add(rejected);
  if (late != 0) metrics.late.add(late);
  if (malformed != 0) metrics.malformed.add(malformed);
  return emitted;
}

std::vector<Tick> CentralStation::ingest(std::span<const Measurement> batch,
                                         std::optional<Tick> now) {
  assemble(batch, now, nullptr);
  std::vector<Tick> ready;
  for (std::size_t i = 0; i < held_ && slots_[i].released; ++i) {
    ready.push_back(slots_[i].row.tick);
  }
  return ready;
}

std::size_t CentralStation::ingest(std::span<const Measurement> batch,
                                   const RowSink& on_row,
                                   std::optional<Tick> now) {
  return assemble(batch, now, &on_row);
}

std::optional<StationRow> CentralStation::take_row(Tick tick) {
  const std::size_t i = find(tick);
  if (i == held_ || !slots_[i].released) return std::nullopt;
  StationRow row = std::move(slots_[i].row);
  retire(i, 1);
  return row;
}

}  // namespace fadewich::net
