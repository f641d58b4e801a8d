#include "oracle/kde_percentile.hpp"

#include <cmath>

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

}  // namespace

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
