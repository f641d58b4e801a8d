#include "fadewich/defend/consistency.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::defend {

ConsistencyChecker::ConsistencyChecker(std::size_t device_count,
                                       ConsistencyConfig config)
    : config_(config),
      window_(std::max<std::size_t>(config.window_ticks, 1)) {
  if (device_count < 2) {
    throw Error("consistency checker: device_count must be >= 2");
  }
  if (window_ > kMaxWindowTicks) {
    throw Error("consistency checker: window_ticks must be <= " +
                std::to_string(kMaxWindowTicks));
  }
  const auto limit = [n = static_cast<double>(window_)](double cap) {
    return (cap * n) * (cap * n);
  };
  soft_limit_ = limit(config_.max_window_std_db);
  hard_limit_ = limit(config_.hard_window_std_db);
  const std::size_t streams = device_count * (device_count - 1);
  bounds_.assign(streams, std::numeric_limits<double>::infinity());
  links_.assign(streams, LinkState{});
  ring_.assign(streams * window_, 0);
}

ConsistencyChecker::ConsistencyChecker(std::size_t device_count,
                                       ConsistencyConfig config,
                                       const std::vector<rf::Point>& positions,
                                       const rf::PathLossConfig& path_loss,
                                       double tx_power_dbm)
    : ConsistencyChecker(device_count, config) {
  if (positions.size() < device_count) {
    throw Error("consistency checker: a position per device is required");
  }
  // Stream order matches rf::ChannelMatrix / net::CentralStation:
  // row-major over ordered (tx, rx) pairs, rx skipping tx.
  const rf::LogDistancePathLoss model(path_loss);
  std::size_t s = 0;
  for (std::size_t tx = 0; tx < device_count; ++tx) {
    for (std::size_t rx = 0; rx < device_count; ++rx) {
      if (rx == tx) continue;
      const double d = rf::distance(positions[tx], positions[rx]);
      bounds_[s] = tx_power_dbm - model.loss_db(d) + config_.margin_up_db;
      ++s;
    }
  }
}

void ConsistencyChecker::raise(LinkState& link, std::uint32_t weight,
                               Tick now) {
  link.suspicion += weight;
  if (link.suspicion >= config_.suspicion_threshold) {
    link.quarantine_until = now + config_.quarantine_ticks;
    link.suspicion = 0;
    // The window and run state are deliberately NOT cleared: they are
    // the detector's memory of the attack.  If the quarantine expires
    // while the attack is still running, the very first sample lands in
    // a window that is already hot and re-quarantines within a couple
    // of ticks, instead of granting the attacker a fresh window-fill's
    // worth of accepted samples every quarantine period.
    ++quarantines_;
  }
}

SampleVerdict ConsistencyChecker::check(std::size_t stream,
                                        std::int8_t rssi_dbm, Tick now) {
  FADEWICH_EXPECTS(stream < links_.size());
  LinkState& link = links_[stream];
  const bool quarantined = link.quarantine_until > now;

  // Quarantine is *sliding*: the statistics keep updating on the
  // samples a quarantined link delivers, and any violation while
  // quarantined re-arms the full quarantine period.  A link therefore
  // only re-enters service after a sustained clean stretch — an attack
  // that outlives the first quarantine never gets a sample accepted at
  // expiry, and once the attack stops the window has already refilled
  // with clean data by the time the quarantine lapses.
  const auto violate = [&](std::uint32_t weight,
                           SampleVerdict verdict) -> SampleVerdict {
    if (quarantined) {
      link.quarantine_until = now + config_.quarantine_ticks;
      return SampleVerdict::kQuarantined;
    }
    raise(link, weight, now);
    return verdict;
  };

  // 1. Static bound: physically impossible values never touch the
  // window statistics (they would poison the variance check too).
  if (rssi_dbm > bounds_[stream] || rssi_dbm < config_.floor_dbm) {
    return violate(config_.bound_weight, SampleVerdict::kImpossible);
  }

  // 3. Frozen-run detection.
  const bool repeat = link.has_last && rssi_dbm == link.last;
  link.run = repeat ? link.run + 1 : 1;
  link.last = rssi_dbm;
  link.has_last = true;
  const bool stuck = link.run >= config_.stuck_run_ticks;
  if (stuck) link.run = 1;

  // 2. Variance caps over the rolling window.  The sample goes into the
  // statistics either way — the window is the detector's memory — but
  // over-cap samples are never forwarded.  With n samples, std > cap is
  // n*Sx2 - Sx^2 > (cap*n)^2; the left side is an exact integer, so the
  // comparison is exact and a tie is not "over".
  std::int8_t& slot = ring_[stream * window_ + link.head];
  const std::int64_t x = rssi_dbm;
  if (link.count == window_) {
    const std::int64_t evicted = slot;
    link.sum -= evicted;
    link.sum_sq -= evicted * evicted;
  } else {
    ++link.count;
  }
  slot = rssi_dbm;
  link.sum += x;
  link.sum_sq += x * x;
  if (++link.head == window_) link.head = 0;

  if (stuck) return violate(config_.stuck_weight, SampleVerdict::kStuck);
  if (link.count == window_) {
    const double spread = static_cast<double>(
        static_cast<std::int64_t>(window_) * link.sum_sq -
        link.sum * link.sum);
    if (spread > hard_limit_) {
      return violate(config_.bound_weight, SampleVerdict::kExcessVariance);
    }
    if (spread > soft_limit_) {
      return violate(config_.variance_weight,
                     SampleVerdict::kExcessVariance);
    }
  }

  if (quarantined) return SampleVerdict::kQuarantined;
  if (link.suspicion > 0) --link.suspicion;  // clean tick decays
  return SampleVerdict::kOk;
}

bool ConsistencyChecker::quarantined(std::size_t stream, Tick now) const {
  FADEWICH_EXPECTS(stream < links_.size());
  return links_[stream].quarantine_until > now;
}

std::size_t ConsistencyChecker::quarantined_count(Tick now) const {
  std::size_t n = 0;
  for (const LinkState& link : links_) {
    if (link.quarantine_until > now) ++n;
  }
  return n;
}

}  // namespace fadewich::defend
