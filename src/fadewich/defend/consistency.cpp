#include "fadewich/defend/consistency.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::defend {

namespace {

// The integer forms of the real-valued thresholds.  Samples are int8
// and spreads are exact integers, so for an integer v and a real limit
// L: v > L iff v > floor(L), and v < L iff v < ceil(L).  NaN limits
// compare false, as the real comparisons do.

/// Samples above the result are above `bound_dbm`.
std::int16_t int_ceiling(double bound_dbm) {
  if (!(bound_dbm < 127.0)) return 127;  // +inf / NaN: nothing is above
  return static_cast<std::int16_t>(std::max(std::floor(bound_dbm), -129.0));
}

/// Samples below the result are below `floor_dbm`.
std::int16_t int_floor(double floor_dbm) {
  if (!(floor_dbm > -128.0)) return -128;  // nothing is below
  return static_cast<std::int16_t>(std::min(std::ceil(floor_dbm), 128.0));
}

/// Spreads above the result are above `limit` (>= 0, or NaN).
std::int64_t int_limit(double limit) {
  if (!(limit < 0x1p62)) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(std::floor(limit));
}

/// All-ones when `flag` is 1, zero when 0.
constexpr std::uint32_t mask(std::uint32_t flag) { return 0u - flag; }

}  // namespace

ConsistencyChecker::ConsistencyChecker(std::size_t device_count,
                                       ConsistencyConfig config)
    : config_(config),
      device_count_(device_count),
      window_(std::max<std::size_t>(config.window_ticks, 1)) {
  if (device_count < 2) {
    throw Error("consistency checker: device_count must be >= 2");
  }
  if (window_ > kMaxWindowTicks) {
    throw Error("consistency checker: window_ticks must be <= " +
                std::to_string(kMaxWindowTicks));
  }
  const auto limit = [n = static_cast<double>(window_)](double cap) {
    return int_limit((cap * n) * (cap * n));
  };
  limits_.window = static_cast<std::int64_t>(window_);
  limits_.soft_limit = limit(config_.max_window_std_db);
  limits_.hard_limit = limit(config_.hard_window_std_db);
  limits_.stuck_run = config_.stuck_run_ticks;
  limits_.floor = int_floor(config_.floor_dbm);
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
      links_[s].ceiling = int_ceiling(bounds_[s]);
      ++s;
    }
  }
}

SampleVerdict ConsistencyChecker::settle(LinkState& link,
                                         std::uint32_t weight,
                                         SampleVerdict finding, Tick now) {
  // Quarantine is *sliding*: the statistics keep updating on the
  // samples a quarantined link delivers, and any violation while
  // quarantined re-arms the full quarantine period without adding
  // suspicion.  A link therefore only re-enters service after a
  // sustained clean stretch — an attack that outlives the first
  // quarantine never gets a sample accepted at expiry, and once the
  // attack stops the window has already refilled with clean data by the
  // time the quarantine lapses.
  const bool quarantined = link.quarantine_until > now;
  if (finding == SampleVerdict::kOk) {
    if (quarantined) return SampleVerdict::kQuarantined;
    if (link.suspicion > 0) --link.suspicion;  // clean tick decays
    return SampleVerdict::kOk;
  }
  if (quarantined) {
    link.quarantine_until = now + config_.quarantine_ticks;
    return SampleVerdict::kQuarantined;
  }
  link.suspicion += weight;
  if (link.suspicion >= config_.suspicion_threshold) {
    link.quarantine_until = now + config_.quarantine_ticks;
    link.suspicion = 0;
    // The window and run state are deliberately NOT cleared: they are
    // the detector's memory of the attack.  If the quarantine expires
    // while the attack is still running, the very first sample lands in
    // a window that is already hot and re-quarantines within a couple of
    // ticks, instead of granting the attacker a fresh window-fill's
    // worth of accepted samples every quarantine period.
    ++quarantines_;
  }
  return finding;
}

[[gnu::always_inline]] inline SampleVerdict ConsistencyChecker::judge(
    const Limits& limits, LinkState& link, std::int8_t* window,
    std::int8_t rssi_dbm, Tick now) {
  const std::int64_t x = rssi_dbm;

  // 1. Static bound: physically impossible values never touch the
  // window or run state (they would poison the variance check too).
  if (x > link.ceiling || x < limits.floor) [[unlikely]] {
    return settle(link, config_.bound_weight, SampleVerdict::kImpossible,
                  now);
  }

  // 3. Frozen-run detection.  Written as masks, not ternaries: honest
  // quantised RSSI repeats on most samples with no learnable pattern,
  // so a branch here mispredicts constantly.
  const std::uint32_t repeat = x == link.last;
  const std::uint32_t run = (link.run & mask(repeat)) + 1;
  const std::uint32_t stuck = run >= limits.stuck_run;
  link.run = run - ((run - 1) & mask(stuck));
  link.last = rssi_dbm;

  // 2. Variance caps over the rolling window.  The sample goes into the
  // statistics either way — the window is the detector's memory — but
  // over-cap samples are never forwarded.  The ring starts zeroed, so
  // until the window fills the evicted slot is a 0 that changes no sum.
  // With n samples, std > cap is n*Sx2 - Sx^2 > (cap*n)^2; the left
  // side is an exact integer and the right side was floored to one, so
  // a tie is not "over".
  std::int8_t& slot = window[link.head];
  const std::int64_t evicted = slot;
  slot = rssi_dbm;
  link.sum += static_cast<std::int32_t>(x - evicted);
  link.sum_sq += x * x - evicted * evicted;
  const std::uint32_t next = link.head + 1;
  link.head = next & mask(next != limits.window);
  link.count += link.count != limits.window;
  const std::uint32_t full = link.count == limits.window;
  const std::int64_t sum = link.sum;
  const std::int64_t spread = limits.window * link.sum_sq - sum * sum;
  const std::uint32_t hard = full & (spread > limits.hard_limit);
  const std::uint32_t soft = full & (spread > limits.soft_limit);

  // Suspicion and quarantine have nothing to account on an honest link:
  // no finding, no quarantine, no suspicion left to decay.  Besides the
  // static bound this is the only branch an honest sample meets, and it
  // goes the same way every time.
  if ((stuck | hard | soft) == 0 && link.suspicion == 0 &&
      link.quarantine_until <= now) [[likely]] {
    return SampleVerdict::kOk;
  }
  // Weigh the gravest finding: stuck, then hard, then soft.
  if (stuck) {
    return settle(link, config_.stuck_weight, SampleVerdict::kStuck, now);
  }
  if (hard | soft) {
    return settle(link,
                  hard ? config_.bound_weight : config_.variance_weight,
                  SampleVerdict::kExcessVariance, now);
  }
  return settle(link, 0, SampleVerdict::kOk, now);
}

void ConsistencyChecker::check_frame(net::DeviceId tx,
                                     std::span<const net::WireReport> reports,
                                     Tick now, std::span<SampleVerdict> out) {
  FADEWICH_EXPECTS(out.size() >= reports.size());
  // Locals, not members: the int8 ring stores may alias anything, so
  // members would be reloaded after every sample.
  const Limits limits = limits_;
  const std::size_t devices = device_count_;
  const std::size_t window = window_;
  LinkState* const links = links_.data();
  std::int8_t* const ring = ring_.data();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const net::DeviceId rx = reports[i].rx;
    if (tx >= devices || rx >= devices || rx == tx) {
      out[i] = SampleVerdict::kUnchecked;
      continue;
    }
    const std::size_t stream = stream_of(tx, rx);
    out[i] = judge(limits, links[stream], ring + stream * window,
                   reports[i].rssi_dbm, now);
  }
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
