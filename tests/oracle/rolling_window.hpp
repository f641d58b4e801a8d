// Test oracle: a fixed-capacity sliding window over a scalar stream with
// O(1) mean and standard deviation queries.
//
// The library's windows (stats::WindowBank for MD, the exact integer
// window inside defend::ConsistencyChecker) are checked against this
// one-stream reference.
//
// The statistics are maintained as incremental Welford mean/M2 updates —
// strictly O(1) per push, including the full-window replace step — which
// stays numerically stable on offset-heavy real-valued signals (RSSI
// sits near -60 dBm) where a floating sum of squares cancels.  As a belt-and-braces guard against very long streams the
// accumulators are still re-derived from the buffer every
// `kRefreshInterval` pushes; the amortised cost stays O(1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fadewich::stats {

class RollingWindow {
 public:
  /// `capacity` is the window size in samples; must be >= 1.
  explicit RollingWindow(std::size_t capacity);

  /// Append a sample, evicting the oldest once the window is full.
  void push(double value);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }
  bool full() const { return size_ == buffer_.size(); }
  bool empty() const { return size_ == 0; }

  /// Mean of the samples currently in the window.  Requires non-empty.
  double mean() const;

  /// Population variance of the window contents.  Requires non-empty.
  double variance() const;

  /// Population standard deviation.  Requires non-empty.
  double stddev() const;

  /// Copy of the window contents in arrival order (oldest first).
  std::vector<double> values() const;

  /// Remove all samples; capacity is unchanged.
  void clear();

 private:
  void refresh_sums();

  static constexpr std::size_t kRefreshInterval = 1u << 16;

  std::vector<double> buffer_;
  std::size_t head_ = 0;  // index of the slot the next push writes
  std::size_t size_ = 0;
  double mean_ = 0.0;  // Welford running mean
  double m2_ = 0.0;    // Welford sum of squared deviations from the mean
  std::size_t pushes_since_refresh_ = 0;
};

}  // namespace fadewich::stats
