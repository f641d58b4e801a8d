#include "fadewich/net/fault_injector.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::net {

namespace {

struct FaultMetrics {
  obs::Counter offered = obs::registry().counter(
      "fadewich_fault_offered_total", "reports offered to the injector");
  obs::Counter dropped = obs::registry().counter(
      "fadewich_fault_dropped_total", "random per-report drops");
  obs::Counter outage_dropped = obs::registry().counter(
      "fadewich_fault_outage_dropped_total", "drops from sensor outages");
  obs::Counter delayed = obs::registry().counter(
      "fadewich_fault_delayed_total", "reports held back for later ticks");
  obs::Counter duplicated = obs::registry().counter(
      "fadewich_fault_duplicated_total", "reports published twice");
  obs::Counter delivered = obs::registry().counter(
      "fadewich_fault_delivered_total",
      "reports that reached the station batch");
  static FaultMetrics& get() {
    static FaultMetrics metrics;
    return metrics;
  }
};

}  // namespace

obs::HealthBlock health_block(const FaultInjector::Counters& counters) {
  obs::HealthBlock block;
  block.name = "faults";
  block.add("offered", static_cast<double>(counters.offered));
  block.add("dropped", static_cast<double>(counters.dropped));
  block.add("outage_dropped",
            static_cast<double>(counters.outage_dropped));
  block.add("delayed", static_cast<double>(counters.delayed));
  block.add("duplicated", static_cast<double>(counters.duplicated));
  block.add("delivered", static_cast<double>(counters.delivered));
  return block;
}

FaultInjector::FaultInjector(std::size_t device_count, FaultConfig config,
                             std::uint64_t seed)
    : device_count_(device_count), config_(std::move(config)) {
  // Fault configs typically arrive from runtime sources (sweep files,
  // CLI flags), so bad values are data errors, not caller bugs: throw
  // fadewich::Error rather than tripping a contract.  The negated
  // comparisons also reject NaN probabilities.
  if (device_count < 2) {
    throw Error("fault injector: device_count must be >= 2");
  }
  if (!(config_.drop_probability >= 0.0 &&
        config_.drop_probability <= 1.0)) {
    throw Error("fault injector: drop_probability must be in [0, 1]");
  }
  if (!(config_.delay_probability >= 0.0 &&
        config_.delay_probability <= 1.0)) {
    throw Error("fault injector: delay_probability must be in [0, 1]");
  }
  if (!(config_.duplicate_probability >= 0.0 &&
        config_.duplicate_probability <= 1.0)) {
    throw Error("fault injector: duplicate_probability must be in [0, 1]");
  }
  if (config_.delay_probability > 0.0 && config_.max_delay_ticks < 1) {
    throw Error("fault injector: delays need max_delay_ticks >= 1");
  }
  for (const SensorOutage& outage : config_.outages) {
    if (outage.device >= device_count) {
      throw Error("fault injector: outage names an unknown device");
    }
    if (outage.from > outage.to) {
      throw Error("fault injector: outage interval is reversed");
    }
  }
  const std::size_t links = device_count * (device_count - 1);
  link_rngs_.reserve(links);
  for (std::size_t s = 0; s < links; ++s) {
    link_rngs_.emplace_back(exec::task_seed(seed, s));
  }
}

std::size_t FaultInjector::link_index(DeviceId tx, DeviceId rx) const {
  FADEWICH_EXPECTS(tx < device_count_);
  FADEWICH_EXPECTS(rx < device_count_);
  FADEWICH_EXPECTS(tx != rx);
  return static_cast<std::size_t>(tx) * (device_count_ - 1) +
         (rx < tx ? rx : rx - 1);
}

bool FaultInjector::in_outage(DeviceId device, Tick tick) const {
  for (const SensorOutage& outage : config_.outages) {
    if (outage.device == device && tick >= outage.from &&
        tick <= outage.to) {
      return true;
    }
  }
  return false;
}

void FaultInjector::offer(const Measurement& m,
                          std::vector<Measurement>& out) {
  auto& metrics = FaultMetrics::get();
  ++counters_.offered;
  metrics.offered.inc();

  // Outage drops are schedule-driven: no RNG draw, so enabling an outage
  // does not perturb the other links' fault sequences.
  if (in_outage(m.tx, m.tick) || in_outage(m.rx, m.tick)) {
    ++counters_.outage_dropped;
    metrics.outage_dropped.inc();
    return;
  }

  if (!config_.enabled()) {
    ++counters_.delivered;
    metrics.delivered.inc();
    out.push_back(m);
    return;
  }

  Rng& rng = link_rngs_[link_index(m.tx, m.rx)];
  if (config_.drop_probability > 0.0 &&
      rng.bernoulli(config_.drop_probability)) {
    ++counters_.dropped;
    metrics.dropped.inc();
    return;
  }
  if (config_.delay_probability > 0.0 &&
      rng.bernoulli(config_.delay_probability)) {
    const Tick delay = rng.uniform_int(1, config_.max_delay_ticks);
    ++counters_.delayed;
    metrics.delayed.inc();
    DelayedReport held{m.tick + delay, next_sequence_++, m};
    // Insertion keeps the queue sorted by (due, sequence); delays are
    // bounded by max_delay_ticks so the scan is short.
    const auto pos = std::upper_bound(
        delayed_.begin(), delayed_.end(), held,
        [](const DelayedReport& a, const DelayedReport& b) {
          return a.due != b.due ? a.due < b.due : a.sequence < b.sequence;
        });
    delayed_.insert(pos, std::move(held));
    return;
  }
  ++counters_.delivered;
  metrics.delivered.inc();
  out.push_back(m);
  if (config_.duplicate_probability > 0.0 &&
      rng.bernoulli(config_.duplicate_probability)) {
    ++counters_.duplicated;
    ++counters_.delivered;
    metrics.duplicated.inc();
    metrics.delivered.inc();
    out.push_back(m);
  }
}

void FaultInjector::advance(Tick now, std::vector<Measurement>& out) {
  auto& metrics = FaultMetrics::get();
  while (!delayed_.empty() && delayed_.front().due <= now) {
    ++counters_.delivered;
    metrics.delivered.inc();
    out.push_back(delayed_.front().measurement);
    delayed_.pop_front();
  }
}

}  // namespace fadewich::net
