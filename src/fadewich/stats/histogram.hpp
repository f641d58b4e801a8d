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

/// What happens to samples outside [lo, hi].
enum class OutlierPolicy {
  // Fold out-of-range samples into the boundary bins.  This silently
  // inflates the edge-bin mass (and thus shifts the entropy), which is
  // fine when the range comes from the data itself (from_data), but
  // callers quantising into a fixed a-priori range should prefer
  // kOutlierBins.  Out-of-range samples are still tallied in
  // underflow()/overflow() so the clamping is observable.
  kClamp,
  // Append two dedicated bins — underflow then overflow — after the
  // interior bins.  Out-of-range samples keep their own mass instead of
  // corrupting the boundary bins; probabilities() and entropy() include
  // them as ordinary outcomes.
  kOutlierBins,
};

class Histogram {
 public:
  /// Interior bins span [lo, hi] with `bins` equal-width cells; samples
  /// outside the range follow `policy` (clamped into the boundary bins
  /// by default).  Requires bins >= 1, lo < hi.
  Histogram(double lo, double hi, std::size_t bins,
            OutlierPolicy policy = OutlierPolicy::kClamp);

  /// Build a histogram whose range is the min/max of the data.  If all
  /// values are equal, a degenerate single-bin range around the value is
  /// used.  Requires non-empty data.
  static Histogram from_data(std::span<const double> xs, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  /// Total bins: interior plus, under kOutlierBins, the two outlier bins.
  std::size_t bin_count() const { return counts_.size(); }
  /// Interior (in-range) bins only.
  std::size_t interior_bin_count() const { return interior_; }
  OutlierPolicy policy() const { return policy_; }

  std::size_t total() const { return total_; }
  std::size_t count(std::size_t bin) const;
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Samples seen below lo / above hi, tallied under *both* policies
  /// (under kClamp they are folded into the boundary bins but still
  /// counted here, so silent clamping is detectable).
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Index of the bin the value falls into.  Under kOutlierBins,
  /// out-of-range values map to the dedicated bins at
  /// interior_bin_count() (underflow) and interior_bin_count() + 1
  /// (overflow).
  std::size_t bin_of(double x) const;

  /// Center of an interior bin.  The outlier bins are half-open and have
  /// no center — passing their index is a contract violation.
  double bin_center(std::size_t bin) const;

  /// Empirical probability of each bin (counts / total).  Requires at
  /// least one sample.
  std::vector<double> probabilities() const;

  /// Shannon entropy (natural log) of the bin distribution; empty bins
  /// contribute zero.  Under kOutlierBins the outlier bins take part
  /// like any other outcome.  Requires at least one sample.
  double entropy() const;

 private:
  double lo_;
  double hi_;
  std::size_t interior_;
  OutlierPolicy policy_;
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
