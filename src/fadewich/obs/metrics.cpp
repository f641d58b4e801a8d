#include "fadewich/obs/metrics.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"

namespace fadewich::obs {

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return slot;
}

HistogramImpl::HistogramImpl(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw Error("obs histogram: bucket bounds must be non-empty");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw Error("obs histogram: bucket bounds must be increasing");
    }
  }
  shards_.reserve(kShardCount);
  for (std::size_t i = 0; i < kShardCount; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void HistogramImpl::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // +inf == size()
  Shard& shard = *shards_[shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  add_double(shard.sum, v);
}

std::vector<std::uint64_t> HistogramImpl::merged_counts() const {
  std::vector<std::uint64_t> merged(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < merged.size(); ++b) {
      merged[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

std::uint64_t HistogramImpl::count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->count.load(std::memory_order_relaxed);
  }
  return total;
}

double HistogramImpl::sum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard->sum.load(std::memory_order_relaxed);
  }
  return total;
}

void HistogramImpl::reset() {
  for (auto& shard : shards_) {
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace detail

double HistogramSample::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= rank) {
      if (b >= bounds.size()) return bounds.back();  // +inf bucket: clamp
      const double lo = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
      const double hi = bounds[b];
      const double frac =
          (rank - before) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds.back();
}

namespace {

template <typename Samples>
const typename Samples::value_type* find_by_name(const Samples& samples,
                                                 const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    const std::string& name) const {
  return find_by_name(counters, name);
}

const GaugeSample* MetricsSnapshot::find_gauge(
    const std::string& name) const {
  return find_by_name(gauges, name);
}

const HistogramSample* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  return find_by_name(histograms, name);
}

std::vector<double> default_bucket_bounds() {
  // 1-2.5-5 ladder, 1 µs .. 10 s: covers per-tick latencies through
  // checkpoint writes.
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
          1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,
          1.0,  2.5,    5.0,  10.0};
}

void MetricsRegistry::check_unique(const std::string& name,
                                   const char* type) const {
  const bool is_counter = counters_.count(name) > 0;
  const bool is_gauge = gauges_.count(name) > 0;
  const bool is_histogram = histograms_.count(name) > 0;
  const std::string want(type);
  if ((is_counter && want != "counter") ||
      (is_gauge && want != "gauge") ||
      (is_histogram && want != "histogram")) {
    throw Error("obs registry: metric '" + name +
                "' already registered as a different type");
  }
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "counter");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto family = std::make_unique<CounterFamily>();
    family->help = help;
    it = counters_.emplace(name, std::move(family)).first;
  }
  return Counter(&it->second->impl);
}

Gauge MetricsRegistry::gauge(const std::string& name,
                             const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "gauge");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    auto family = std::make_unique<GaugeFamily>();
    family->help = help;
    it = gauges_.emplace(name, std::move(family)).first;
  }
  return Gauge(&it->second->impl);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "histogram");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = default_bucket_bounds();
    it = histograms_
             .emplace(name, std::make_unique<HistogramFamily>(
                                help, std::move(bounds)))
             .first;
  }
  return Histogram(&it->second->impl);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, family] : counters_) {
    snap.counters.push_back({name, family->help, family->impl.total()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, family] : gauges_) {
    snap.gauges.push_back({name, family->help, family->impl.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, family] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.help = family->help;
    sample.bounds = family->impl.bounds();
    sample.counts = family->impl.merged_counts();
    sample.count = family->impl.count();
    sample.sum = family->impl.sum();
    snap.histograms.push_back(std::move(sample));
  }
  // std::map iteration is already name-sorted.
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, family] : counters_) family->impl.reset();
  for (auto& [name, family] : gauges_) family->impl.reset();
  for (auto& [name, family] : histograms_) family->impl.reset();
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace fadewich::obs
