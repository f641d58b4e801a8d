#include "fadewich/obs/metrics.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"

namespace fadewich::obs {

namespace {

/// Bucket index of `v`: the first bound >= v, or bounds.size() (+inf).
std::size_t bucket_of(std::span<const double> bounds, double v) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

}  // namespace

std::span<const double> default_bucket_bounds() {
  // 1-2.5-5 ladder, 1 µs .. 10 s: covers per-tick latencies through
  // checkpoint writes.
  static constexpr double kBounds[] = {
      1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
      5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
      0.25, 0.5,    1.0,  2.5,  5.0,  10.0};
  return kBounds;
}

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return slot;
}

HistogramImpl::HistogramImpl(std::vector<double> bounds)
    : own_bounds_(std::move(bounds)),
      bounds_(own_bounds_.empty() ? default_bucket_bounds()
                                  : std::span<const double>(own_bounds_)) {
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
  Shard& shard = *shards_[shard_index()];
  shard.counts[bucket_of(bounds_, v)].fetch_add(1,
                                                std::memory_order_relaxed);
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

void HistogramSample::observe(double v) {
  ++counts[bucket_of(bounds, v)];
  ++count;
  sum += v;
}

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

const HistogramSample* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::add_histogram(const HistogramSample& live,
                                    std::string_view name,
                                    std::string_view help) {
  histograms.push_back(live);
  histograms.back().name = name;
  histograms.back().help = help;
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
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
  for (auto& [name, family] : histograms_) family->impl.reset();
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_.size();
}

}  // namespace fadewich::obs
