#include "fadewich/defend/defender.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace fadewich::defend {

obs::HealthBlock health_block(const DefendCounters& c) {
  obs::HealthBlock block;
  block.name = "defend";
  block.add("frames_checked", static_cast<double>(c.frames_checked));
  block.add("frames_accepted", static_cast<double>(c.frames_accepted));
  block.add("frames_rejected", static_cast<double>(c.frames_rejected()));
  block.add("rate_limited", static_cast<double>(c.rate_limited));
  block.add("unknown_station", static_cast<double>(c.unknown_station));
  block.add("unauthenticated", static_cast<double>(c.unauthenticated));
  block.add("bad_tag", static_cast<double>(c.bad_tag));
  block.add("replayed", static_cast<double>(c.replayed));
  block.add("stale", static_cast<double>(c.stale));
  block.add("spoof_conflicts", static_cast<double>(c.spoof_conflicts));
  block.add("station_quarantine_drops",
            static_cast<double>(c.station_quarantine_drops));
  block.add("reports_checked", static_cast<double>(c.reports_checked));
  block.add("reports_accepted", static_cast<double>(c.reports_accepted));
  block.add("impossible_rssi", static_cast<double>(c.impossible_rssi));
  block.add("variance_flags", static_cast<double>(c.variance_flags));
  block.add("stuck_drops", static_cast<double>(c.stuck_drops));
  block.add("link_quarantine_drops",
            static_cast<double>(c.link_quarantine_drops));
  block.add("link_quarantines", static_cast<double>(c.link_quarantines));
  block.add("ramped_samples", static_cast<double>(c.ramped_samples));
  return block;
}

void Defender::init_state() {
  stations_.resize(device_count_);
  for (std::size_t d = 0; d < device_count_; ++d) {
    stations_[d].key = net::derive_station_key(
        config_.key_seed, static_cast<std::uint16_t>(d));
  }
  recent_.resize(device_count_);
  streams_.assign(device_count_ * (device_count_ - 1), StreamState{});
}

Defender::Defender(std::size_t device_count, DefendConfig config)
    : device_count_(device_count),
      config_(config),
      consistency_(device_count, config.consistency) {
  init_state();
}

Defender::Defender(std::size_t device_count, DefendConfig config,
                   const std::vector<rf::Point>& positions,
                   const rf::PathLossConfig& path_loss, double tx_power_dbm)
    : device_count_(device_count),
      config_(config),
      consistency_(device_count, config.consistency, positions, path_loss,
                   tx_power_dbm) {
  init_state();
}

bool Defender::take_token(StationState& st, Tick now) {
  if (!st.bucket_started) {
    st.bucket_started = true;
    st.tokens = config_.rate_burst;
    st.last_refill = now;
  } else if (now > st.last_refill) {
    const double refill =
        static_cast<double>(now - st.last_refill) * config_.rate_per_tick;
    st.tokens = std::min(config_.rate_burst, st.tokens + refill);
    st.last_refill = now;
  }
  if (st.tokens < 1.0) return false;
  st.tokens -= 1.0;
  return true;
}

void Defender::remember(std::uint16_t station, std::uint64_t seq,
                        std::uint64_t digest) {
  StationState& st = stations_[station];
  recent_[station][st.recent_head] = {seq, digest};
  st.recent_head = (st.recent_head + 1) % kRecentRing;
  if (st.recent_count < kRecentRing) ++st.recent_count;
}

std::optional<std::uint64_t> Defender::recall(std::uint16_t station,
                                              std::uint64_t seq) const {
  const RecentRing& ring = recent_[station];
  for (std::size_t i = 0; i < stations_[station].recent_count; ++i) {
    if (ring[i].seq == seq) return ring[i].digest;
  }
  return std::nullopt;
}

double Defender::smooth(StreamState& s, double value, Tick now) {
  // A stream reporting without a gap and with no ramp in progress (or
  // reporting for the first time) passes its value through.
  if (s.ramp_start == -1 && now - s.last_seen <= config_.rejoin_gap_ticks)
      [[likely]] {
    s.last_seen = now;
    s.last_out = value;
    s.has_out = true;
    return value;
  }
  double forward = value;
  if (config_.ramp_ticks > 0 && s.has_out) {
    if (now - s.last_seen > config_.rejoin_gap_ticks) {
      s.ramp_start = now;
      s.ramp_hold = s.last_out;
    }
    if (s.ramp_start != -1 && now - s.ramp_start < config_.ramp_ticks) {
      const double alpha = static_cast<double>(now - s.ramp_start + 1) /
                           static_cast<double>(config_.ramp_ticks);
      forward = s.ramp_hold + alpha * (value - s.ramp_hold);
      ++counters_.ramped_samples;
    }
  }
  s.last_seen = now;
  s.last_out = forward;
  s.has_out = true;
  return forward;
}

bool Defender::station_quarantined(std::uint16_t station, Tick now) const {
  if (station >= stations_.size()) return false;
  return stations_[station].quarantine_until > now;
}

FrameVerdict Defender::filter_frame(const net::DecodedFrame& frame, Tick now,
                                    std::vector<net::Measurement>& out) {
  ++counters_.frames_checked;

  // Station identity: in this deployment every sensor is its own
  // reporting station, so a station id outside the device table is a
  // fabricated identity, not a routing error.
  const std::uint16_t station = frame.header.station_id;
  if (station >= device_count_) {
    ++counters_.unknown_station;
    return FrameVerdict::kUnknownStation;
  }
  StationState& st = stations_[station];

  if (st.quarantine_until > now) {
    ++counters_.station_quarantine_drops;
    return FrameVerdict::kStationQuarantined;
  }

  // Rate limit before any per-byte work: a flood must cost the attacker
  // bandwidth, not the defender CPU.
  if (!take_token(st, now)) {
    ++counters_.rate_limited;
    return FrameVerdict::kRateLimited;
  }

  if (!frame.authenticated) {
    ++counters_.unauthenticated;
    return FrameVerdict::kUnauthenticated;
  }
  if (!net::verify_frame_tag(st.key, frame)) {
    ++counters_.bad_tag;
    return FrameVerdict::kBadTag;
  }

  // Anti-replay over the station's sequence space.  A duplicate seq with
  // identical content is a replay; with different content it is a spoof
  // under a (necessarily compromised) valid key — quarantine the
  // identity, since its key can no longer be trusted.  The tag has just
  // verified under the station key, so it already is a keyed digest of
  // every covered byte.
  const std::uint64_t digest = frame.tag;
  switch (st.window.accept(frame.header.seq)) {
    case net::SeqWindow::Result::kDuplicate: {
      const std::optional<std::uint64_t> prior =
          recall(station, frame.header.seq);
      if (prior.has_value() && *prior != digest) {
        ++counters_.spoof_conflicts;
        st.quarantine_until = now + config_.consistency.quarantine_ticks;
        return FrameVerdict::kSpoofConflict;
      }
      ++counters_.replayed;
      return FrameVerdict::kReplayed;
    }
    case net::SeqWindow::Result::kStale:
      ++counters_.stale;
      return FrameVerdict::kStale;
    case net::SeqWindow::Result::kFresh:
    case net::SeqWindow::Result::kReordered:
      break;
  }
  remember(station, frame.header.seq, digest);

  // Physical consistency, one call per frame.  Reports with device ids
  // outside the deployment come back kUnchecked and are forwarded
  // untouched — CentralStation counts them malformed; duplicating that
  // bookkeeping here would skew its health block.
  const std::span<const net::WireReport> reports = frame.reports;
  if (verdicts_.size() < reports.size()) verdicts_.resize(reports.size());
  const net::DeviceId tx = frame.header.tx;
  consistency_.check_frame(tx, reports, now, verdicts_);

  const std::size_t base = out.size();
  out.resize(base + reports.size());
  net::Measurement* const first = out.data() + base;
  net::Measurement* next = first;
  const Tick tick = frame.header.tick;
  std::array<std::uint64_t, 5> dropped{};  // by verdict; kOk stays 0
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SampleVerdict verdict = verdicts_[i];
    const net::DeviceId rx = reports[i].rx;
    double value = reports[i].rssi_dbm;
    if (verdict == SampleVerdict::kOk) {
      value = smooth(streams_[consistency_.stream_of(tx, rx)], value, now);
    } else if (verdict != SampleVerdict::kUnchecked) [[unlikely]] {
      ++dropped[static_cast<std::size_t>(verdict)];
    }
    *next = {tx, rx, tick, value};
    next += verdict == SampleVerdict::kOk ||
            verdict == SampleVerdict::kUnchecked;
  }
  out.resize(base + static_cast<std::size_t>(next - first));
  counters_.reports_checked += reports.size();
  counters_.reports_accepted += static_cast<std::size_t>(next - first);
  const auto drops = [&dropped](SampleVerdict verdict) {
    return dropped[static_cast<std::size_t>(verdict)];
  };
  counters_.impossible_rssi += drops(SampleVerdict::kImpossible);
  counters_.variance_flags += drops(SampleVerdict::kExcessVariance);
  counters_.stuck_drops += drops(SampleVerdict::kStuck);
  counters_.link_quarantine_drops += drops(SampleVerdict::kQuarantined);
  counters_.link_quarantines = consistency_.quarantines();

  ++counters_.frames_accepted;
  return FrameVerdict::kAccept;
}

}  // namespace fadewich::defend
