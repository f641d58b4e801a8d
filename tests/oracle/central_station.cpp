#include "oracle/central_station.hpp"

#include <algorithm>
#include <utility>

#include "fadewich/common/error.hpp"

namespace fadewich::oracle {

CentralStation::CentralStation(std::size_t device_count,
                               StationConfig config)
    : device_count_(device_count), config_(config) {
  // Station configs come from deployment descriptions at runtime, so
  // invalid values throw fadewich::Error (recoverable data error)
  // instead of tripping a contract check.
  if (device_count < 2) {
    throw Error("central station: device_count must be >= 2");
  }
  if (config.deadline_ticks < 0) {
    throw Error("central station: deadline_ticks must be >= 0");
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

void CentralStation::release(Tick tick, PendingRow&& row, bool complete) {
  StationRow out;
  out.tick = tick;
  out.values = std::move(row.values);
  out.valid = std::move(row.present);
  if (complete) {
    out.missing = 0;
  } else {
    ++health_.incomplete_releases;
    out.missing = stream_count() - row.filled;
    for (std::size_t s = 0; s < out.values.size(); ++s) {
      if (!out.valid[s]) {
        out.values[s] = last_value_[s];  // last-known-value imputation
        ++health_.imputed_cells;
        ++health_.imputed_per_stream[s];
        ++lifetime_imputed_;
      }
    }
  }
  for (std::size_t s = 0; s < out.values.size(); ++s) {
    if (out.valid[s]) last_value_[s] = out.values[s];
  }
  if (tick > release_watermark_) release_watermark_ = tick;
  released_.emplace(tick, std::move(out));
}

void CentralStation::evict_oldest() {
  // Prefer dropping a row still under assembly; only a caller that never
  // takes released rows forces released evictions.
  if (!pending_.empty()) {
    const Tick tick = pending_.begin()->first;
    if (tick > release_watermark_) release_watermark_ = tick;
    pending_.erase(pending_.begin());
  } else {
    released_.erase(released_.begin());
  }
  ++health_.evictions;
  ++lifetime_evictions_;
}

std::vector<Tick> CentralStation::ingest(std::span<const Measurement> batch,
                                         std::optional<Tick> now) {
  // A live ordered-path assembly row is just a pending row the fast path
  // kept out of the map; fold it back in so the two paths can interleave
  // on one station without losing reports.
  spill_assembly();
  for (const Measurement& m : batch) {
    ++health_.reports;
    // Ingest runs on wire-decoded input: a CRC-valid frame can still
    // carry device ids or ticks no deployment produced.  Those reports
    // are counted malformed and dropped — stream_index() is a contract
    // for trusted callers, not a validator for hostile bytes.
    if (m.tx >= device_count_ || m.rx >= device_count_ || m.tx == m.rx ||
        m.tick < 0) {
      ++health_.malformed;
      continue;
    }
    const std::size_t s = stream_index(m.tx, m.rx);
    auto it = pending_.find(m.tick);
    if (it == pending_.end()) {
      // A report for a tick already released (or given up on) cannot
      // amend the frozen row: count it late and move on.  The watermark
      // gates strict mode too — a straggler for a released-and-taken
      // tick used to re-open a pending row there that could never
      // complete, stalling every newer tick at the monotone-release
      // gate below.
      const bool already_released = released_.count(m.tick) > 0;
      const bool past_watermark = m.tick <= release_watermark_;
      if (already_released || past_watermark) {
        ++health_.late_reports;
        if (seen_ticks_[s].seen(static_cast<std::uint64_t>(m.tick))) {
          // Not a straggling loss — a repeat of a report this stream
          // already delivered (wire duplicate / injector duplicate).
          ++health_.duplicates_rejected;
        }
        continue;
      }
      while (buffered_count() >= config_.max_pending) evict_oldest();
      PendingRow fresh;
      fresh.values.assign(stream_count(), 0.0);
      fresh.present.assign(stream_count(), 0);
      it = pending_.emplace(m.tick, std::move(fresh)).first;
    }
    PendingRow& row = it->second;
    if (!row.present[s]) {
      row.present[s] = 1;
      ++row.filled;
      row.values[s] = m.rssi_dbm;
      seen_ticks_[s].accept(static_cast<std::uint64_t>(m.tick));
    } else {
      ++health_.duplicates;
      if (row.values[s] == m.rssi_dbm) {
        // Exact repeat: dropped without effect.
        ++health_.duplicates_rejected;
      } else {
        row.values[s] = m.rssi_dbm;  // revised reports keep the latest
      }
    }
  }

  // Release complete rows, then everything past the deadline.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const bool complete = it->second.filled == stream_count();
    const bool expired =
        config_.deadline_ticks > 0 && now.has_value() &&
        *now - it->first >= config_.deadline_ticks;
    if (complete || expired) {
      release(it->first, std::move(it->second), complete);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  // Surface released rows in tick order: a released tick is ready only
  // once nothing older is still under assembly, so downstream always
  // consumes a monotone stream (the deadline bounds the holdback).
  std::vector<Tick> ready;
  ready.reserve(released_.size());
  for (const auto& [tick, row] : released_) {
    if (!pending_.empty() && pending_.begin()->first < tick) break;
    ready.push_back(tick);
  }
  return ready;  // std::map iterates in ascending tick order
}

void CentralStation::spill_assembly() {
  if (!assembly_live_) return;
  assembly_live_ = false;
  pending_.emplace(assembly_tick_, std::move(assembly_));
  assembly_ = PendingRow{};
}

void CentralStation::emit_assembly(const RowSink& on_row) {
  emit_row_.tick = assembly_tick_;
  emit_row_.values.swap(assembly_.values);
  emit_row_.valid.swap(assembly_.present);
  if (assembly_.filled == stream_count()) {
    emit_row_.missing = 0;
    std::copy(emit_row_.values.begin(), emit_row_.values.end(),
              last_value_.begin());
  } else {
    // Incomplete release under the ordered contract (the stream moved
    // past this tick): same imputation taxonomy as release().
    ++health_.incomplete_releases;
    emit_row_.missing = stream_count() - assembly_.filled;
    for (std::size_t s = 0; s < emit_row_.values.size(); ++s) {
      if (!emit_row_.valid[s]) {
        emit_row_.values[s] = last_value_[s];
        ++health_.imputed_cells;
        ++health_.imputed_per_stream[s];
        ++lifetime_imputed_;
      } else {
        last_value_[s] = emit_row_.values[s];
      }
    }
  }
  if (assembly_tick_ > release_watermark_) {
    release_watermark_ = assembly_tick_;
  }
  on_row(emit_row_);
  // Reclaim the buffers: the sink contract says the row dies with the
  // call, so the vectors come straight back for the next assembly.
  assembly_.values.swap(emit_row_.values);
  assembly_.present.swap(emit_row_.valid);
  std::fill(assembly_.values.begin(), assembly_.values.end(), 0.0);
  std::fill(assembly_.present.begin(), assembly_.present.end(),
            std::uint8_t{0});
  assembly_.filled = 0;
  assembly_live_ = false;
}

std::size_t CentralStation::ingest_ordered(std::span<const Measurement> batch,
                                           const RowSink& on_row,
                                           std::optional<Tick> now) {
  std::size_t emitted = 0;
  std::size_t i = 0;
  // The fast loop assumes strict mode and no carried-over generic state;
  // anything else (and any mid-batch ordering violation below) drops to
  // the generic path, which implements the full semantics.
  if (config_.deadline_ticks == 0 && pending_.empty() &&
      released_.empty()) {
    const std::size_t streams = stream_count();
    const std::size_t devices = device_count_;
    std::uint64_t n_reports = 0;
    for (; i < batch.size(); ++i) {
      const Measurement& m = batch[i];
      ++n_reports;
      if (m.tx >= devices || m.rx >= devices || m.tx == m.rx ||
          m.tick < 0) {
        ++health_.malformed;
        continue;
      }
      const std::size_t s =
          static_cast<std::size_t>(m.tx) * (devices - 1) +
          (m.rx < m.tx ? m.rx : m.rx - 1);
      if (assembly_live_ && m.tick != assembly_tick_) {
        if (m.tick < assembly_tick_) {
          // Tick regression: the ordering contract is broken; let the
          // generic path handle this and everything after it.
          break;
        }
        // A strictly newer tick finalises the assembly row, complete or
        // not — emit_assembly imputes missing cells (see header doc).
        emit_assembly(on_row);
        ++emitted;
      }
      if (!assembly_live_) {
        if (m.tick <= release_watermark_) {
          // Straggler for an already-emitted (or given-up) tick: same
          // late/duplicate taxonomy as the generic path.
          ++health_.late_reports;
          if (seen_ticks_[s].seen(static_cast<std::uint64_t>(m.tick))) {
            ++health_.duplicates_rejected;
          }
          continue;
        }
        if (assembly_.values.size() != streams) {
          assembly_.values.assign(streams, 0.0);
          assembly_.present.assign(streams, 0);
        }
        assembly_tick_ = m.tick;
        assembly_live_ = true;
      }
      PendingRow& row = assembly_;
      if (!row.present[s]) {
        row.present[s] = 1;
        ++row.filled;
        row.values[s] = m.rssi_dbm;
        seen_ticks_[s].accept(static_cast<std::uint64_t>(m.tick));
      } else {
        ++health_.duplicates;
        if (row.values[s] == m.rssi_dbm) {
          ++health_.duplicates_rejected;
        } else {
          row.values[s] = m.rssi_dbm;  // revised reports keep the latest
        }
      }
    }
    health_.reports += n_reports;
  }
  if (i < batch.size()) {
    // Generic remainder: spill the live row (ingest() does), run the
    // full-semantics path, and forward whatever it releases.
    const std::vector<Tick> ready = ingest(batch.subspan(i), now);
    for (const Tick tick : ready) {
      if (std::optional<StationRow> row = take_row(tick)) {
        on_row(*row);
        ++emitted;
      }
    }
  }
  return emitted;
}

std::size_t CentralStation::finish_ordered(const RowSink& on_row) {
  if (!assembly_live_) return 0;
  if (assembly_.filled == stream_count()) {
    emit_assembly(on_row);
    return 1;
  }
  spill_assembly();  // strict mode holds it, as the generic path would
  return 0;
}

std::optional<StationRow> CentralStation::take_row(Tick tick) {
  const auto it = released_.find(tick);
  if (it == released_.end()) return std::nullopt;
  StationRow row = std::move(it->second);
  released_.erase(it);
  return row;
}

}  // namespace fadewich::oracle
