// Fixed-bin histogram and Shannon entropy.
//
// RE's entropy feature is the entropy of the frequency-distribution
// histogram of an RSSI window (Section IV-D1); the RMI feature analysis
// (Appendix A) quantises feature values into 256 linearly spaced bins.
// Both uses are covered here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fadewich::stats {

class Histogram {
 public:
  /// `bins` equal-width cells span [lo, hi]; samples outside the range
  /// are clamped into the boundary bins (and tallied in underflow() /
  /// overflow()).  Requires bins >= 1, lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  /// Build a histogram whose range is the min/max of the data.  If all
  /// values are equal, a degenerate single-bin range around the value is
  /// used.  Requires non-empty data.
  static Histogram from_data(std::span<const double> xs, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bin_count() const { return counts_.size(); }

  std::size_t total() const { return total_; }
  std::size_t count(std::size_t bin) const;
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Samples seen below lo / above hi.  They are folded into the
  /// boundary bins but still counted here, so clamping is detectable.
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Index of the bin the value falls into (clamped into range).
  std::size_t bin_of(double x) const;

  /// Center of a bin.
  double bin_center(std::size_t bin) const;

  /// Empirical probability of each bin (counts / total).  Requires at
  /// least one sample.
  std::vector<double> probabilities() const;

  /// Shannon entropy (natural log) of the bin distribution; empty bins
  /// contribute zero.  Requires at least one sample.
  double entropy() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Entropy of the value-frequency distribution of a window, exactly as RE
/// uses it: each distinct value is one outcome, P(r_j) its frequency.
/// RSSI samples are quantised (1 dBm), so distinct-value counting matches
/// the paper's histogram over the window's values.  Sorts a copy in the
/// thread's scratch arena, then sorted_value_entropy.  Requires
/// non-empty, NaN-free input.
double value_entropy(std::span<const double> xs);

/// value_entropy of a window already sorted ascending: each run of
/// equal values is one outcome, and -p log p is subtracted run by run in
/// ascending-value order, the order a std::map of the values walks, so
/// the bits match it.  `plogp` = plogp_table(sorted.size()).
double sorted_value_entropy(std::span<const double> sorted,
                            std::span<const double> plogp);

/// out[c] = p * log(p) at p = c / n for c = 1..n (out[0] = 0): the
/// terms of value_entropy over an n-value window, computed once per
/// window length.  Requires n >= 1 and out.size() == n + 1.
void plogp_table(std::size_t n, std::span<double> out);

}  // namespace fadewich::stats
