#include "oracle/consistency.hpp"

namespace fadewich::oracle {

namespace {

using defend::SampleVerdict;

// Welford's std > cap, except at an exact tie (integer samples), which
// is "not over".
bool over(const stats::RollingWindow& window, double std, double cap) {
  std::int64_t sum = 0, sum_sq = 0;
  for (const double v : window.values()) {
    const auto x = static_cast<std::int64_t>(v);
    sum += x;
    sum_sq += x * x;
  }
  const auto n = static_cast<std::int64_t>(window.size());
  const double limit =
      (cap * static_cast<double>(n)) * (cap * static_cast<double>(n));
  if (static_cast<double>(n * sum_sq - sum * sum) == limit) return false;
  return std > cap;
}

}  // namespace

ReferenceChecker::ReferenceChecker(const defend::ConsistencyChecker& twin)
    : config_(twin.config()), device_count_(twin.device_count()) {
  for (std::size_t s = 0; s < twin.stream_count(); ++s) {
    bounds_.push_back(twin.static_bound_dbm(s));
    links_.emplace_back(twin.window_ticks());
  }
}

SampleVerdict ReferenceChecker::check(std::size_t stream, double x,
                                      Tick now) {
  Link& link = links_[stream];
  const bool quarantined = link.quarantine_until > now;
  const auto violate = [&](std::uint32_t weight, SampleVerdict verdict) {
    if (quarantined) {
      link.quarantine_until = now + config_.quarantine_ticks;
      return SampleVerdict::kQuarantined;
    }
    link.suspicion += weight;
    if (link.suspicion >= config_.suspicion_threshold) {
      link.quarantine_until = now + config_.quarantine_ticks;
      link.suspicion = 0;
      ++quarantines_;
    }
    return verdict;
  };
  if (x > bounds_[stream] || x < config_.floor_dbm) {
    return violate(config_.bound_weight, SampleVerdict::kImpossible);
  }
  const bool repeat = link.has_last && x == link.last;
  link.run = repeat ? link.run + 1 : 1;
  link.last = x;
  link.has_last = true;
  const bool stuck = link.run >= config_.stuck_run_ticks;
  if (stuck) link.run = 1;
  link.window.push(x);
  if (stuck) return violate(config_.stuck_weight, SampleVerdict::kStuck);
  if (link.window.full()) {
    const double std = link.window.stddev();
    if (over(link.window, std, config_.hard_window_std_db)) {
      return violate(config_.bound_weight, SampleVerdict::kExcessVariance);
    }
    if (over(link.window, std, config_.max_window_std_db)) {
      return violate(config_.variance_weight,
                     SampleVerdict::kExcessVariance);
    }
  }
  if (quarantined) return SampleVerdict::kQuarantined;
  if (link.suspicion > 0) --link.suspicion;
  return SampleVerdict::kOk;
}

void ReferenceChecker::check_frame(net::DeviceId tx,
                                   std::span<const net::WireReport> reports,
                                   Tick now, std::span<SampleVerdict> out) {
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::size_t rx = reports[i].rx;
    if (tx >= device_count_ || rx >= device_count_ || rx == tx) {
      out[i] = SampleVerdict::kUnchecked;
      continue;
    }
    // Row-major over ordered (tx, rx) pairs, rx skipping tx.
    const std::size_t column = rx < tx ? rx : rx - 1;
    out[i] = check(tx * (device_count_ - 1) + column,
                   static_cast<double>(reports[i].rssi_dbm), now);
  }
}

}  // namespace fadewich::oracle
