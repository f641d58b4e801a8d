// Fixed-bucket histograms, in two shapes.
//
// An instance that is the only writer of a distribution (one controller's
// deauth latency, one detector's window lengths) holds a plain
// HistogramSample and calls observe() on it: no atomics, no registry,
// and the count belongs to that instance alone.  Its owner appends a
// named copy into a ScrapeReport at scrape time.
//
// A distribution that several threads write at once (a fleet's deauth
// latency across shards stepped on the pool, a plane's ring depth across
// drain workers) is a sharded Histogram minted from a MetricsRegistry the
// writing instance owns.  Hot-path updates never take a lock: each
// family owns kShardCount cache-line-aligned shards of relaxed atomics,
// every thread hashes to a fixed shard on its first update, and shards
// are merged only by snapshot(), the rare path.  Histogram handles are
// trivially-copyable pointers into registry-owned families; they stay
// valid for the registry's lifetime, and observe() compiles to nothing
// when FADEWICH_OBS_DISABLE is defined and to a relaxed load + branch
// when the runtime toggle is off.
//
// Naming scheme (see DESIGN.md §12): fadewich_<module>_<what>, with
// `_seconds` for time histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {

/// Shards per family.  Power of two; enough to keep a machine-sized
/// thread pool contention-free.
inline constexpr std::size_t kShardCount = 16;

/// Default histogram bucket bounds: a 1-2.5-5 latency ladder from 1 µs
/// to 10 s, one static table shared by every histogram that uses it.
std::span<const double> default_bucket_bounds();

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

class HistogramImpl {
 public:
  /// `bounds` are strictly-increasing inclusive upper bucket bounds; an
  /// implicit +inf bucket is appended.  Empty means the static
  /// default_bucket_bounds() table.
  explicit HistogramImpl(std::vector<double> bounds);

  void observe(double v);
  std::vector<std::uint64_t> merged_counts() const;  // bounds.size() + 1
  std::uint64_t count() const;
  double sum() const;
  std::span<const double> bounds() const { return bounds_; }
  void reset();

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets)
        : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> own_bounds_;  // empty when bounds_ is the default
  std::span<const double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace detail

/// Fixed-bucket distribution handle into a registry family.
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

/// A histogram's bucket counts: the live value of a single-writer
/// histogram, and the merged, named value a scrape reports.
struct HistogramSample {
  HistogramSample() = default;
  /// An empty live histogram over `bounds` (strictly increasing), which
  /// must outlive it: a static table such as default_bucket_bounds().
  explicit HistogramSample(std::span<const double> bounds)
      : bounds(bounds), counts(bounds.size() + 1, 0) {}

  std::string name;  // empty on a live instance; set when reported
  std::string help;
  /// Upper bounds, +inf implicit.  Views a static table or, in a registry
  /// snapshot, the registry family's own bounds.
  std::span<const double> bounds;
  std::vector<std::uint64_t> counts;   // per bucket, bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Record one value (single writer).
  void observe(double v);

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank; values in the +inf bucket clamp to
  /// the last finite bound.  0 when empty.
  double percentile(double q) const;
};

/// Point-in-time histograms, registry families sorted by name.
struct MetricsSnapshot {
  std::vector<HistogramSample> histograms;

  const HistogramSample* find_histogram(const std::string& name) const;

  /// Append a copy of an instance's live histogram under `name`.
  void add_histogram(const HistogramSample& live, std::string_view name,
                     std::string_view help);
};

/// Sharded histogram families for distributions with several concurrent
/// writers.  Owned by the instance whose threads write them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Fetch-or-create a family.  Repeated calls with the same name return
  /// handles to the same family (help and bounds from the first call
  /// win).  Empty `bounds` means default_bucket_bounds(); otherwise
  /// bounds must be strictly increasing (throws fadewich::Error).
  Histogram histogram(const std::string& name, const std::string& help = "",
                      std::vector<double> bounds = {});

  /// Merge every shard of every family (each value is atomically read;
  /// cross-metric skew is permitted).  Samples with custom bounds view
  /// the family's, so the snapshot must not outlive the registry.
  MetricsSnapshot snapshot() const;

  /// Zero every family's value.  Families — and outstanding handles —
  /// stay valid.
  void reset();

  std::size_t family_count() const;

 private:
  struct HistogramFamily {
    std::string help;
    detail::HistogramImpl impl;
    explicit HistogramFamily(std::string h, std::vector<double> bounds)
        : help(std::move(h)), impl(std::move(bounds)) {}
  };

  mutable std::mutex mutex_;  // guards the family map, not the values
  std::map<std::string, std::unique_ptr<HistogramFamily>> histograms_;
};

}  // namespace fadewich::obs
