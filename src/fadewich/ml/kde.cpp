#include "fadewich/ml/kde.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fadewich/common/error.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::ml {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kInvSqrt2 = 0.7071067811865476;
// Queries evaluated per sample-window scan.  Small enough that the
// accumulators stay in registers, large enough to amortise the binary
// search and let the inner loop vectorise.
constexpr std::size_t kQueryBlock = 8;

// Newton scans allowed before locate_root gives up (typical: ~5).
constexpr int kNewtonMaxScans = 20;

// The pruned CDF at x, computed exactly as kde_cdf_sorted computes it,
// and the pruned density, in one pass over the ±reach window.
struct CdfAndPdf {
  double cdf;
  double pdf;
};

CdfAndPdf kde_cdf_pdf_sorted(std::span<const double> sorted,
                             double bandwidth, double x) {
  const double reach = kKdeKernelReach * bandwidth;
  const auto lo_it =
      std::lower_bound(sorted.begin(), sorted.end(), x - reach);
  const auto hi_it =
      std::upper_bound(sorted.begin(), sorted.end(), x + reach);
  double acc = static_cast<double>(lo_it - sorted.begin());
  double dens = 0.0;
  for (auto it = lo_it; it != hi_it; ++it) {
    const double u = (x - *it) / bandwidth;
    acc += 0.5 * (1.0 + std::erf(u * kInvSqrt2));
    dens += std::exp(-0.5 * u * u);
  }
  const double n = static_cast<double>(sorted.size());
  return {acc / n, dens * kInvSqrt2Pi / (bandwidth * n)};
}

// The root c of the computed pruned CDF minus p, and the half-width
// delta around it inside which a bisection midpoint must still be
// decided by the exact CDF (see kde_percentile_sorted).  delta is +inf
// when no root could be certified.
struct Root {
  double c;
  double delta;
};

Root locate_root(std::span<const double> sorted, double bandwidth, double p,
                 double lo, double hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Start from the empirical quantile, never from a previous answer, so
  // the cost of a call depends only on its inputs.
  const std::size_t n = sorted.size();
  double x = sorted[std::min(n - 1, static_cast<std::size_t>(
                                        p * static_cast<double>(n)))];
  double a = lo;  // CDF(a) < p is assumed, as the bisection assumes
  double b = hi;  // CDF(b) >= p likewise
  if (!(x > a && x < b)) x = 0.5 * (a + b);
  for (int scan = 0; scan < kNewtonMaxScans; ++scan) {
    const CdfAndPdf e = kde_cdf_pdf_sorted(sorted, bandwidth, x);
    if (e.cdf < p) {
      a = x;
    } else {
      b = x;
    }
    if (std::isfinite(e.pdf) && e.pdf > 0.0) {
      const double step = (e.cdf - p) / e.pdf;
      // Rounding budget of the computed CDF: each erf term and
      // running-sum add is off by at most ~1e-16, so 1e-12 covers up to
      // ~1000 samples with a 10x margin; larger sample sets scale it.
      const double budget =
          std::max(1e-12, 1e-15 * static_cast<double>(n));
      const double delta =
          std::max(1e-12 * (1.0 + std::abs(x)), budget / e.pdf);
      if (std::abs(step) <= delta / 32.0) {
        // The margin argument needs the density near-constant across
        // ±delta; a root in a numerically flat region gets none.
        return {x, delta <= 0.01 * bandwidth ? delta : kInf};
      }
      x -= step;
    }
    // Keep the iterate strictly inside the sign bracket.
    if (!(x > a && x < b)) x = 0.5 * (a + b);
  }
  return {x, kInf};
}

// Shared bisection core: invert the pruned CDF inside [lo, hi].  The
// bracket, midpoints and stopping rule are the plain bisection's; only
// midpoints within delta of the located root pay for an exact CDF.
double bisect_percentile(std::span<const double> sorted, double bandwidth,
                         double p, double lo, double hi, int max_iterations,
                         double rel_tol) {
  const Root root = locate_root(sorted, bandwidth, p, lo, hi);
  for (int i = 0;
       i < max_iterations && hi - lo > rel_tol * (1.0 + std::abs(hi));
       ++i) {
    const double mid = 0.5 * (lo + hi);
    // Written so a NaN root or an infinite delta falls to the exact CDF.
    const bool mid_below = std::abs(mid - root.c) > root.delta
                               ? mid < root.c
                               : kde_cdf_sorted(sorted, bandwidth, mid) < p;
    if (mid_below) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double kde_pdf_sorted(std::span<const double> sorted, double bandwidth,
                      double x) {
  const double reach = kKdeKernelReach * bandwidth;
  const auto lo_it =
      std::lower_bound(sorted.begin(), sorted.end(), x - reach);
  const auto hi_it =
      std::upper_bound(sorted.begin(), sorted.end(), x + reach);
  double acc = 0.0;
  for (auto it = lo_it; it != hi_it; ++it) {
    const double u = (x - *it) / bandwidth;
    acc += std::exp(-0.5 * u * u);
  }
  return acc * kInvSqrt2Pi /
         (bandwidth * static_cast<double>(sorted.size()));
}

double kde_cdf_sorted(std::span<const double> sorted, double bandwidth,
                      double x) {
  // Samples below x - reach contribute 1; above x + reach contribute 0;
  // only the middle needs erf.
  const double reach = kKdeKernelReach * bandwidth;
  const auto lo_it =
      std::lower_bound(sorted.begin(), sorted.end(), x - reach);
  const auto hi_it =
      std::upper_bound(sorted.begin(), sorted.end(), x + reach);
  double acc = static_cast<double>(lo_it - sorted.begin());
  for (auto it = lo_it; it != hi_it; ++it) {
    acc += 0.5 * (1.0 + std::erf((x - *it) / bandwidth * kInvSqrt2));
  }
  return acc / static_cast<double>(sorted.size());
}

void kde_pdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out,
                          const simd::KernelTable& kernels) {
  FADEWICH_EXPECTS(out.size() == xs.size());
  const double reach = kKdeKernelReach * bandwidth;
  const double inv_bw = 1.0 / bandwidth;
  const double norm =
      kInvSqrt2Pi / (bandwidth * static_cast<double>(sorted.size()));
  for (std::size_t base = 0; base < xs.size(); base += kQueryBlock) {
    const std::size_t n = std::min(kQueryBlock, xs.size() - base);
    double mn = xs[base];
    double mx = xs[base];
    for (std::size_t j = 1; j < n; ++j) {
      mn = std::min(mn, xs[base + j]);
      mx = std::max(mx, xs[base + j]);
    }
    // One sample-window scan serves the whole block; samples outside a
    // particular query's own window contribute < exp(-32), invisible at
    // the 1e-12 equivalence budget.
    const auto lo_it =
        std::lower_bound(sorted.begin(), sorted.end(), mn - reach);
    const auto hi_it =
        std::upper_bound(sorted.begin(), sorted.end(), mx + reach);
    double acc[kQueryBlock] = {};
    kernels.kde_expsum_block(sorted.data() + (lo_it - sorted.begin()),
                             static_cast<std::size_t>(hi_it - lo_it),
                             xs.data() + base, n, inv_bw, acc);
    for (std::size_t j = 0; j < n; ++j) out[base + j] = acc[j] * norm;
  }
}

void kde_pdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs,
                          std::span<double> out) {
  kde_pdf_block_sorted(sorted, bandwidth, xs, out, simd::active_kernels());
}

void kde_cdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs, std::span<double> out,
                          const simd::KernelTable& kernels) {
  FADEWICH_EXPECTS(out.size() == xs.size());
  const double reach = kKdeKernelReach * bandwidth;
  const double inv_bw = 1.0 / bandwidth;
  const double inv_n = 1.0 / static_cast<double>(sorted.size());
  for (std::size_t base = 0; base < xs.size(); base += kQueryBlock) {
    const std::size_t n = std::min(kQueryBlock, xs.size() - base);
    double mn = xs[base];
    double mx = xs[base];
    for (std::size_t j = 1; j < n; ++j) {
      mn = std::min(mn, xs[base + j]);
      mx = std::max(mx, xs[base + j]);
    }
    const auto lo_it =
        std::lower_bound(sorted.begin(), sorted.end(), mn - reach);
    const auto hi_it =
        std::upper_bound(sorted.begin(), sorted.end(), mx + reach);
    // Every sample below the block window sits 8 bandwidths under every
    // query in the block (x_j >= mn), so it contributes exactly 1.
    const double below = static_cast<double>(lo_it - sorted.begin());
    double acc[kQueryBlock];
    for (std::size_t j = 0; j < n; ++j) acc[j] = below;
    kernels.kde_erfsum_block(sorted.data() + (lo_it - sorted.begin()),
                             static_cast<std::size_t>(hi_it - lo_it),
                             xs.data() + base, n, inv_bw, acc);
    for (std::size_t j = 0; j < n; ++j) out[base + j] = acc[j] * inv_n;
  }
}

void kde_cdf_block_sorted(std::span<const double> sorted, double bandwidth,
                          std::span<const double> xs,
                          std::span<double> out) {
  kde_cdf_block_sorted(sorted, bandwidth, xs, out, simd::active_kernels());
}

double kde_percentile_sorted(std::span<const double> sorted,
                             double bandwidth, double p, int max_iterations,
                             double rel_tol) {
  FADEWICH_EXPECTS(!sorted.empty());
  FADEWICH_EXPECTS(p > 0.0 && p < 1.0);
  const double lo = sorted.front() - kKdeKernelReach * bandwidth;
  const double hi = sorted.back() + kKdeKernelReach * bandwidth;
  return bisect_percentile(sorted, bandwidth, p, lo, hi, max_iterations,
                           rel_tol);
}

GaussianKde::GaussianKde(std::span<const double> samples)
    : GaussianKde(samples, silverman_bandwidth(samples)) {}

GaussianKde::GaussianKde(std::span<const double> samples, double bandwidth)
    : samples_(samples.begin(), samples.end()), bandwidth_(bandwidth) {
  FADEWICH_EXPECTS(!samples_.empty());
  FADEWICH_EXPECTS(bandwidth_ > 0.0);
  std::sort(samples_.begin(), samples_.end());
}

double GaussianKde::silverman_bandwidth(std::span<const double> samples) {
  FADEWICH_EXPECTS(!samples.empty());
  const double n = static_cast<double>(samples.size());
  double sigma = samples.size() >= 2
                     ? std::sqrt(stats::sample_variance(samples))
                     : 0.0;
  // Constant samples would give zero bandwidth; floor keeps the KDE a
  // proper (if narrow) density.
  sigma = std::max(sigma, 1e-6);
  return 1.06 * sigma * std::pow(n, -0.2);
}

double GaussianKde::pdf(double x) const {
  double acc = 0.0;
  for (double s : samples_) {
    const double u = (x - s) / bandwidth_;
    acc += std::exp(-0.5 * u * u);
  }
  return acc * kInvSqrt2Pi /
         (bandwidth_ * static_cast<double>(samples_.size()));
}

double GaussianKde::cdf(double x) const {
  double acc = 0.0;
  for (double s : samples_) {
    acc += 0.5 * (1.0 + std::erf((x - s) / bandwidth_ * kInvSqrt2));
  }
  return acc / static_cast<double>(samples_.size());
}

void GaussianKde::pdf_block(std::span<const double> xs,
                            std::span<double> out) const {
  kde_pdf_block_sorted(samples_, bandwidth_, xs, out);
}

void GaussianKde::cdf_block(std::span<const double> xs,
                            std::span<double> out) const {
  kde_cdf_block_sorted(samples_, bandwidth_, xs, out);
}

double GaussianKde::percentile(double p) const {
  FADEWICH_EXPECTS(p > 0.0 && p < 1.0);
  // The p-quantile of a Gaussian mixture lies within ~8 bandwidths of the
  // cached sample extremes for any p of practical interest; extend until
  // the bracket truly contains p (handles extreme p values).
  double lo = min_sample() - kKdeKernelReach * bandwidth_;
  double hi = max_sample() + kKdeKernelReach * bandwidth_;
  while (kde_cdf_sorted(samples_, bandwidth_, lo) > p) {
    lo -= kKdeKernelReach * bandwidth_;
  }
  while (kde_cdf_sorted(samples_, bandwidth_, hi) < p) {
    hi += kKdeKernelReach * bandwidth_;
  }
  return bisect_percentile(samples_, bandwidth_, p, lo, hi, 200, 1e-12);
}

}  // namespace fadewich::ml
