#include "fadewich/defend/defender.hpp"

#include <algorithm>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/env.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::defend {

namespace {

struct DefendMetrics {
  obs::Counter frames = obs::registry().counter(
      "fadewich_defend_frames_total", "frames judged by the defender");
  obs::Counter rejected = obs::registry().counter(
      "fadewich_defend_frames_rejected_total",
      "frames refused (rate / auth / replay / spoof / quarantine)");
  obs::Counter reports_dropped = obs::registry().counter(
      "fadewich_defend_reports_dropped_total",
      "reports dropped by consistency checks or link quarantine");
  obs::Counter quarantines = obs::registry().counter(
      "fadewich_defend_quarantines_total",
      "link + station quarantine entries");
  obs::Gauge quarantined_links = obs::registry().gauge(
      "fadewich_defend_quarantined_links",
      "links currently under quarantine");
  static DefendMetrics& get() {
    static DefendMetrics metrics;
    return metrics;
  }
};

}  // namespace

DefendConfig DefendConfig::from_env() {
  DefendConfig config;
  if (const auto enabled = common::env_flag("FADEWICH_DEFEND")) {
    config.enabled = *enabled;
  }
  if (const auto seed = common::env_u64("FADEWICH_DEFEND_KEYSEED")) {
    config.key_seed = *seed;
  }
  if (const auto rate = common::env_positive_real("FADEWICH_DEFEND_RATE")) {
    config.rate_per_tick = *rate;
    config.rate_burst = *rate * 16.0;
  }
  return config;
}

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
  block.add("ramped_samples", static_cast<double>(c.ramped_samples));
  return block;
}

void Defender::init_state() {
  stations_.resize(device_count_);
  for (std::size_t d = 0; d < device_count_; ++d) {
    stations_[d].key = net::derive_station_key(
        config_.key_seed, static_cast<std::uint16_t>(d));
  }
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

std::uint64_t Defender::content_digest(
    const net::DecodedFrame& frame) const {
  // Under require_auth the tag has just verified under the station key,
  // so it already is a keyed digest of every covered byte.  Unsigned
  // traffic has no trustworthy tag (a tagged and a tag-stripped copy of
  // one frame must compare equal), so it pays for a CRC over the content.
  if (config_.require_auth) return frame.tag;
  Crc32 crc;
  crc.update(&frame.header.tick, sizeof(frame.header.tick));
  crc.update(&frame.header.tx, sizeof(frame.header.tx));
  for (const net::WireReport& r : frame.reports) {
    crc.update(&r.rx, sizeof(r.rx));
    crc.update(&r.rssi_dbm, sizeof(r.rssi_dbm));
  }
  return crc.value();
}

void Defender::remember(StationState& st, std::uint64_t seq,
                        std::uint64_t digest) {
  st.recent_seq[st.recent_head] = seq;
  st.recent_digest[st.recent_head] = digest;
  st.recent_head = (st.recent_head + 1) % kRecentRing;
  if (st.recent_count < kRecentRing) ++st.recent_count;
}

std::optional<std::uint64_t> Defender::recall(const StationState& st,
                                              std::uint64_t seq) {
  for (std::size_t i = 0; i < st.recent_count; ++i) {
    if (st.recent_seq[i] == seq) return st.recent_digest[i];
  }
  return std::nullopt;
}

double Defender::smooth(StreamState& s, double value, Tick now) {
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
  if (!config_.enabled) {
    net::to_measurements(frame, out);
    return FrameVerdict::kAccept;
  }
  ++counters_.frames_checked;
  DefendMetrics::get().frames.inc();

  const auto reject = [](std::uint64_t& counter) {
    ++counter;
    DefendMetrics::get().rejected.inc();
  };

  // Station identity: in this deployment every sensor is its own
  // reporting station, so a station id outside the device table is a
  // fabricated identity, not a routing error.
  if (frame.header.station_id >= device_count_) {
    reject(counters_.unknown_station);
    return FrameVerdict::kUnknownStation;
  }
  StationState& st = stations_[frame.header.station_id];

  if (st.quarantine_until > now) {
    reject(counters_.station_quarantine_drops);
    return FrameVerdict::kStationQuarantined;
  }

  // Rate limit before any per-byte work: a flood must cost the attacker
  // bandwidth, not the defender CPU.
  if (!take_token(st, now)) {
    reject(counters_.rate_limited);
    return FrameVerdict::kRateLimited;
  }

  if (config_.require_auth) {
    if (!frame.authenticated) {
      reject(counters_.unauthenticated);
      return FrameVerdict::kUnauthenticated;
    }
    if (!net::verify_frame_tag(st.key, frame)) {
      reject(counters_.bad_tag);
      return FrameVerdict::kBadTag;
    }
  }

  // Anti-replay over the station's sequence space.  A duplicate seq with
  // identical content is a replay; with different content it is a spoof
  // under a (necessarily compromised) valid key — quarantine the
  // identity, since its key can no longer be trusted.
  const std::uint64_t digest = content_digest(frame);
  switch (st.window.accept(frame.header.seq)) {
    case net::SeqWindow::Result::kDuplicate: {
      const std::optional<std::uint64_t> prior =
          recall(st, frame.header.seq);
      if (prior.has_value() && *prior != digest) {
        reject(counters_.spoof_conflicts);
        st.quarantine_until = now + config_.consistency.quarantine_ticks;
        DefendMetrics::get().quarantines.inc();
        return FrameVerdict::kSpoofConflict;
      }
      reject(counters_.replayed);
      return FrameVerdict::kReplayed;
    }
    case net::SeqWindow::Result::kStale:
      reject(counters_.stale);
      return FrameVerdict::kStale;
    case net::SeqWindow::Result::kFresh:
    case net::SeqWindow::Result::kReordered:
      break;
  }
  remember(st, frame.header.seq, digest);

  // Physical consistency per report.  Reports with device ids outside
  // the deployment are forwarded untouched — CentralStation counts them
  // malformed; duplicating that bookkeeping here would skew its health
  // block.
  const std::uint64_t quarantines_before = consistency_.quarantines();
  for (const net::WireReport& r : frame.reports) {
    ++counters_.reports_checked;
    const net::DeviceId tx = frame.header.tx;
    const double value = static_cast<double>(r.rssi_dbm);
    if (tx >= device_count_ || r.rx >= device_count_ || r.rx == tx) {
      ++counters_.reports_accepted;
      out.push_back(net::Measurement{tx, r.rx, frame.header.tick, value});
      continue;
    }
    const std::size_t stream =
        static_cast<std::size_t>(tx) * (device_count_ - 1) +
        (r.rx < tx ? r.rx : r.rx - 1);
    switch (consistency_.check(stream, r.rssi_dbm, now)) {
      case SampleVerdict::kOk:
        ++counters_.reports_accepted;
        out.push_back(net::Measurement{tx, r.rx, frame.header.tick,
                                       smooth(streams_[stream], value, now)});
        break;
      case SampleVerdict::kExcessVariance:
        ++counters_.variance_flags;
        DefendMetrics::get().reports_dropped.inc();
        break;
      case SampleVerdict::kImpossible:
        ++counters_.impossible_rssi;
        DefendMetrics::get().reports_dropped.inc();
        break;
      case SampleVerdict::kStuck:
        ++counters_.stuck_drops;
        DefendMetrics::get().reports_dropped.inc();
        break;
      case SampleVerdict::kQuarantined:
        ++counters_.link_quarantine_drops;
        DefendMetrics::get().reports_dropped.inc();
        break;
    }
  }
  const std::uint64_t new_quarantines =
      consistency_.quarantines() - quarantines_before;
  if (new_quarantines > 0) {
    DefendMetrics::get().quarantines.add(new_quarantines);
  }

  ++counters_.frames_accepted;
  return FrameVerdict::kAccept;
}

void Defender::publish_metrics(Tick now) const {
  DefendMetrics::get().quarantined_links.set(
      static_cast<double>(consistency_.quarantined_count(now)));
}

}  // namespace fadewich::defend
