// One-dimensional Gaussian kernel density estimation.
//
// MD's normal profile (Section IV-C2) is the KDE of the distribution of
// summed standard deviations; the anomaly threshold is the (100-alpha)th
// percentile of the estimated CDF.  The Gaussian-kernel CDF has a closed
// form (sum of erfs), so the percentile is inverted by bisection — with
// Newton's method locating the root first, so only the midpoints next to
// it pay for an exact CDF evaluation.
//
// Layout: samples are kept in one flat array, sorted ascending, with the
// extremes cached.  Sorting buys tail pruning — a kernel centred more
// than kKdeKernelReach bandwidths below x contributes exactly 1 to the
// CDF (0 above, and 0 to the PDF either side), so evaluation only needs
// the samples inside a ±reach window found by binary search.  The
// *_block functions batch queries: they walk the sample window once per
// small query block (sample-major inner loop, vectorisable) instead of
// once per query, which is how the profile sweep and threshold updates
// stay cheap at scale.  The free *_sorted kernels are shared with
// core::NormalProfile so both evaluate the identical pruned sums.
#pragma once

#include <span>
#include <vector>

namespace fadewich::simd {
struct KernelTable;
}

namespace fadewich::ml {

/// Bandwidths beyond which a Gaussian kernel's tail is numerically flat:
/// exp(-0.5 * 8^2) ≈ 1.3e-14, below the 1e-12 equivalence budget even
/// summed over thousands of samples.
inline constexpr double kKdeKernelReach = 8.0;

// --- Free kernels over sorted flat sample arrays ----------------------
// All require `sorted` ascending and bandwidth > 0; NormalProfile calls
// them directly on its own ring snapshot to avoid copying into a KDE.

/// Pruned PDF at x: only samples within ±reach bandwidths contribute.
double kde_pdf_sorted(std::span<const double> sorted, double bandwidth,
                      double x);

/// Pruned CDF at x: samples below the window count 1, above count 0.
double kde_cdf_sorted(std::span<const double> sorted, double bandwidth,
                      double x);

/// Batched pruned PDF: out[i] = pdf(xs[i]).  Queries are processed in
/// small blocks sharing one sample-window scan; monotone (sweep-like)
/// query orders get the tightest windows.  out.size() == xs.size().
/// The exp sum runs through simd::active_kernels() (fast_exp, within the
/// 1e-12 pruning budget already granted to this API).
void kde_pdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out);

/// Same, through an explicit kernel table (benches / equivalence tests).
void kde_pdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out,
                          const simd::KernelTable& kernels);

/// Batched pruned CDF, same contract as kde_pdf_block_sorted.  The erf
/// sum stays on libm erf in every table (exact path — percentile()
/// bisection reads these tails).
void kde_cdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out);

/// Same, through an explicit kernel table.
void kde_cdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out,
                          const simd::KernelTable& kernels);

/// Inverse CDF by bisection over the pruned CDF, bracketed at the cached
/// extremes ± reach.  `max_iterations` bisection steps or until the
/// bracket shrinks below rel_tol * (1 + |hi|).  Requires p in (0, 1).
///
/// The result is bit-identical to deciding every midpoint m by an exact
/// `kde_cdf_sorted(m) < p`, but most midpoints skip the CDF:
///  1. Newton's method, started from the samples' empirical p-quantile
///     and kept inside the bracket, locates the root c of the computed
///     CDF minus p (one fused CDF + density scan per step, at most 20).
///  2. The bisection then runs unchanged.  A midpoint with
///     |m - c| > delta is decided by its side of c; any other midpoint
///     by the exact CDF (libm erf).
/// delta = max(1e-12 * (1 + |c|), 1e-12 / f(c)), f the pruned density:
/// beyond it the CDF differs from p by at least ~1e-12, far above the
/// CDF's rounding error (about 1e-13 at 1000 samples; larger sample
/// sets scale the 1e-12).  delta = +inf, i.e. plain bisection, when
/// Newton does not converge, when f(c) is not finite and positive, or
/// when delta exceeds 0.01 bandwidths (the density must be near-constant
/// across ±delta for the margin to hold).
double kde_percentile_sorted(std::span<const double> sorted,
                             double bandwidth, double p, int max_iterations,
                             double rel_tol);

class GaussianKde {
 public:
  /// Fit to samples using Silverman's rule-of-thumb bandwidth.  Requires a
  /// non-empty sample set.
  explicit GaussianKde(std::span<const double> samples);

  /// Fit with an explicit bandwidth (> 0).
  GaussianKde(std::span<const double> samples, double bandwidth);

  double bandwidth() const { return bandwidth_; }
  std::size_t sample_count() const { return samples_.size(); }

  /// Cached sample extremes (the sorted array's ends) — percentile()
  /// brackets from these instead of re-scanning the samples.
  double min_sample() const { return samples_.front(); }
  double max_sample() const { return samples_.back(); }

  /// Estimated density at x.  Unpruned reference sum over every sample
  /// (the scalar baseline the block API is equivalence-tested against).
  double pdf(double x) const;

  /// Estimated cumulative distribution at x (exact for the Gaussian
  /// mixture the KDE defines).  Unpruned reference sum.
  double cdf(double x) const;

  /// Batched density: out[i] = density at xs[i], within 1e-12 of pdf()
  /// (tail pruning drops only numerically-flat kernels).
  void pdf_block(std::span<const double> xs, std::span<double> out) const;

  /// Batched CDF, within 1e-12 of cdf().
  void cdf_block(std::span<const double> xs, std::span<double> out) const;

  /// Inverse CDF by bisection; p in (0, 1).  Bisects until the bracket
  /// is below 1e-12 * (1 + |hi|) (or 200 steps), with the same
  /// Newton-located replay as kde_percentile_sorted.  Brackets from the
  /// cached extremes, extended until it contains p, and evaluates the
  /// pruned CDF, so repeated calls never re-scan the sample array.
  double percentile(double p) const;

  /// Silverman's rule: 1.06 * sigma_hat * n^(-1/5), with sigma_hat the
  /// sample standard deviation (a small floor keeps degenerate constant
  /// samples usable).
  static double silverman_bandwidth(std::span<const double> samples);

 private:
  std::vector<double> samples_;  // sorted ascending
  double bandwidth_;
};

}  // namespace fadewich::ml
