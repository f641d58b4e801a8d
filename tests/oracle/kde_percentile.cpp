#include "oracle/kde_percentile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fadewich/common/error.hpp"
#include "fadewich/ml/kde.hpp"

namespace fadewich::oracle {

namespace {

// Invert the pruned CDF inside [lo, hi].
double bisect_percentile(std::span<const double> sorted, double bandwidth,
                         double p, double lo, double hi, int max_iterations,
                         double rel_tol) {
  for (int i = 0;
       i < max_iterations && hi - lo > rel_tol * (1.0 + std::abs(hi));
       ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ml::kde_cdf_sorted(sorted, bandwidth, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kInvSqrt2 = 0.7071067811865476;

// One exact scan: the pruned CDF at x and the pruned density.
void cdf_and_pdf(std::span<const double> sorted, double bandwidth, double x,
                 double& cdf, double& pdf) {
  const double reach = ml::kKdeKernelReach * bandwidth;
  const auto lo_it = std::lower_bound(sorted.begin(), sorted.end(), x - reach);
  const auto hi_it = std::upper_bound(sorted.begin(), sorted.end(), x + reach);
  double acc = static_cast<double>(lo_it - sorted.begin());
  double dens = 0.0;
  for (auto it = lo_it; it != hi_it; ++it) {
    const double u = (x - *it) / bandwidth;
    acc += 0.5 * (1.0 + std::erf(u * kInvSqrt2));
    dens += std::exp(-0.5 * u * u);
  }
  const double n = static_cast<double>(sorted.size());
  cdf = acc / n;
  pdf = dens * kInvSqrt2Pi / (bandwidth * n);
}

}  // namespace

double kde_percentile_exact_newton(std::span<const double> sorted,
                                   double bandwidth, double p,
                                   int max_iterations, double rel_tol) {
  FADEWICH_EXPECTS(!sorted.empty());
  FADEWICH_EXPECTS(p > 0.0 && p < 1.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = sorted.front() - ml::kKdeKernelReach * bandwidth;
  double hi = sorted.back() + ml::kKdeKernelReach * bandwidth;
  const std::size_t n = sorted.size();
  double x = sorted[std::min(n - 1, static_cast<std::size_t>(
                                        p * static_cast<double>(n)))];
  double a = lo;
  double b = hi;
  double c = x;
  double delta = kInf;
  if (!(x > a && x < b)) x = 0.5 * (a + b);
  for (int scan = 0; scan < 20; ++scan) {
    double cdf = 0.0;
    double pdf = 0.0;
    cdf_and_pdf(sorted, bandwidth, x, cdf, pdf);
    (cdf < p ? a : b) = x;
    if (std::isfinite(pdf) && pdf > 0.0) {
      const double step = (cdf - p) / pdf;
      const double budget = std::max(1e-12, 1e-15 * static_cast<double>(n));
      const double d = std::max(1e-12 * (1.0 + std::abs(x)), budget / pdf);
      if (std::abs(step) <= d / 32.0) {
        c = x;
        delta = d <= 0.01 * bandwidth ? d : kInf;
        break;
      }
      x -= step;
    }
    if (!(x > a && x < b)) x = 0.5 * (a + b);
    c = x;
  }
  for (int i = 0;
       i < max_iterations && hi - lo > rel_tol * (1.0 + std::abs(hi));
       ++i) {
    const double mid = 0.5 * (lo + hi);
    const bool mid_below =
        std::abs(mid - c) > delta
            ? mid < c
            : ml::kde_cdf_sorted(sorted, bandwidth, mid) < p;
    (mid_below ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double kde_percentile_sorted(std::span<const double> sorted,
                             double bandwidth, double p, int max_iterations,
                             double rel_tol) {
  FADEWICH_EXPECTS(!sorted.empty());
  FADEWICH_EXPECTS(p > 0.0 && p < 1.0);
  const double lo = sorted.front() - ml::kKdeKernelReach * bandwidth;
  const double hi = sorted.back() + ml::kKdeKernelReach * bandwidth;
  return bisect_percentile(sorted, bandwidth, p, lo, hi, max_iterations,
                           rel_tol);
}

double gaussian_kde_percentile(std::span<const double> sorted,
                               double bandwidth, double p) {
  FADEWICH_EXPECTS(!sorted.empty());
  FADEWICH_EXPECTS(p > 0.0 && p < 1.0);
  double lo = sorted.front() - ml::kKdeKernelReach * bandwidth;
  double hi = sorted.back() + ml::kKdeKernelReach * bandwidth;
  while (ml::kde_cdf_sorted(sorted, bandwidth, lo) > p) {
    lo -= ml::kKdeKernelReach * bandwidth;
  }
  while (ml::kde_cdf_sorted(sorted, bandwidth, hi) < p) {
    hi += ml::kKdeKernelReach * bandwidth;
  }
  return bisect_percentile(sorted, bandwidth, p, lo, hi, 200, 1e-12);
}

}  // namespace fadewich::oracle
