// Lock-cheap metrics: counters, gauges, and fixed-bucket histograms.
//
// Hot-path updates never take a lock.  Counters and histograms are
// sharded: each family owns kShardCount cache-line-aligned shards of
// relaxed atomics, and every thread hashes to a fixed shard on its first
// update, so concurrent writers from a thread pool almost never contend
// on the same line.  Shards are merged only on scrape (snapshot()), which
// is the rare path.  Gauges are a single relaxed atomic double — they are
// set, not accumulated, so sharding would only blur "latest wins".
//
// Handles (Counter, Gauge, Histogram) are trivially-copyable pointers
// into registry-owned families; they stay valid for the registry's
// lifetime and their update methods compile to nothing when
// FADEWICH_OBS_DISABLE is defined and to a relaxed load + branch when the
// runtime toggle is off.
//
// Naming scheme (see DESIGN.md §12): fadewich_<module>_<what>, with
// `_total` for counters and `_seconds` for time histograms.  A name may
// carry a Prometheus label suffix, e.g. `fadewich_re_classified_total{label="2"}`
// — the exporters split base name and labels; the registry treats the
// full string as the family key.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {

/// Shards per family.  Power of two; 16 lines ≈ 1 KiB per counter family,
/// enough to keep a machine-sized thread pool contention-free.
inline constexpr std::size_t kShardCount = 16;

namespace detail {

/// The calling thread's fixed shard slot, assigned round-robin on first
/// use so pool workers spread evenly.
std::size_t shard_index();

/// Relaxed accumulating add for atomic<double> (CAS loop: portable where
/// fetch_add on floating atomics is not).
inline void add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v,
                                  std::memory_order_relaxed)) {
  }
}

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

class CounterImpl {
 public:
  void add(std::uint64_t n) {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const CounterShard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() {
    for (CounterShard& s : shards_) {
      s.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<CounterShard, kShardCount> shards_;
};

class GaugeImpl {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { add_double(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

class HistogramImpl {
 public:
  /// `bounds` are strictly-increasing inclusive upper bucket bounds; an
  /// implicit +inf bucket is appended.  Requires non-empty bounds.
  explicit HistogramImpl(std::vector<double> bounds);

  void observe(double v);
  std::vector<std::uint64_t> merged_counts() const;  // bounds.size() + 1
  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets)
        : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace detail

/// Monotonic event counter handle.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) const {
#if !defined(FADEWICH_OBS_DISABLE)
    if (impl_ != nullptr && enabled()) impl_->add(n);
#else
    (void)n;
#endif
  }
  void inc() const { add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterImpl* impl) : impl_(impl) {}
  detail::CounterImpl* impl_ = nullptr;
};

/// Latest-value handle (queue depth, buffered rows, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
#if !defined(FADEWICH_OBS_DISABLE)
    if (impl_ != nullptr && enabled()) impl_->set(v);
#else
    (void)v;
#endif
  }
  void add(double v) const {
#if !defined(FADEWICH_OBS_DISABLE)
    if (impl_ != nullptr && enabled()) impl_->add(v);
#else
    (void)v;
#endif
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeImpl* impl) : impl_(impl) {}
  detail::GaugeImpl* impl_ = nullptr;
};

/// Fixed-bucket distribution handle.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const {
#if !defined(FADEWICH_OBS_DISABLE)
    if (impl_ != nullptr && enabled()) impl_->observe(v);
#else
    (void)v;
#endif
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramImpl* impl) : impl_(impl) {}
  detail::HistogramImpl* impl_ = nullptr;
};

// --- Scrape-side value types -----------------------------------------

struct CounterSample {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  std::vector<double> bounds;          // upper bounds, +inf implicit
  std::vector<std::uint64_t> counts;   // per bucket, bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank; values in the +inf bucket clamp to
  /// the last finite bound.  0 when empty.
  double percentile(double q) const;
};

/// Point-in-time merge of every family, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* find_counter(const std::string& name) const;
  const GaugeSample* find_gauge(const std::string& name) const;
  const HistogramSample* find_histogram(const std::string& name) const;
};

/// Default histogram bucket bounds: a 1-2.5-5 latency ladder from 1 µs
/// to 10 s.
std::vector<double> default_bucket_bounds();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Fetch-or-create a family.  Repeated calls with the same name return
  /// handles to the same family (help from the first call wins); a name
  /// already registered as a different metric type throws fadewich::Error.
  Counter counter(const std::string& name, const std::string& help = "");
  Gauge gauge(const std::string& name, const std::string& help = "");
  /// Empty `bounds` means default_bucket_bounds(); otherwise bounds must
  /// be strictly increasing (throws fadewich::Error).
  Histogram histogram(const std::string& name, const std::string& help = "",
                      std::vector<double> bounds = {});

  /// Merge every shard of every family into a consistent-enough snapshot
  /// (each value is atomically read; cross-metric skew is permitted).
  MetricsSnapshot snapshot() const;

  /// Zero every family's value.  Families — and outstanding handles —
  /// stay valid.
  void reset();

  std::size_t family_count() const;

  /// Process-wide registry the built-in instrumentation writes to.
  static MetricsRegistry& global();

 private:
  struct CounterFamily {
    std::string help;
    detail::CounterImpl impl;
  };
  struct GaugeFamily {
    std::string help;
    detail::GaugeImpl impl;
  };
  struct HistogramFamily {
    std::string help;
    detail::HistogramImpl impl;
    explicit HistogramFamily(std::string h, std::vector<double> bounds)
        : help(std::move(h)), impl(std::move(bounds)) {}
  };

  void check_unique(const std::string& name, const char* type) const;

  mutable std::mutex mutex_;  // guards the family maps, not the values
  std::map<std::string, std::unique_ptr<CounterFamily>> counters_;
  std::map<std::string, std::unique_ptr<GaugeFamily>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramFamily>> histograms_;
};

}  // namespace fadewich::obs
