// Test oracle: the KDE percentile by plain bisection over the pruned CDF,
// with every midpoint decided by an exact `ml::kde_cdf_sorted` call.
//
// The library's bisection core (ml/kde.cpp) locates the root first and
// decides far-away midpoints by position; it must reproduce these
// results bit-for-bit.  `kde_percentile_sorted` mirrors the profile's
// entry point (bracket at the extremes ± reach), and
// `gaussian_kde_percentile` mirrors `ml::GaussianKde::percentile` (the
// bracket extended until it contains p, then 200 steps to 1e-12).
#pragma once

#include <span>

namespace fadewich::oracle {

/// Bisection inside [extremes ± reach]; same contract as
/// ml::kde_percentile_sorted.
double kde_percentile_sorted(std::span<const double> sorted,
                             double bandwidth, double p, int max_iterations,
                             double rel_tol);

/// ml::GaussianKde::percentile over an already sorted sample array.
double gaussian_kde_percentile(std::span<const double> sorted,
                               double bandwidth, double p);

/// The profile's percentile as the library computed it before its
/// approximate pre-pass: exact Newton scans (libm erf + exp) from the
/// empirical quantile locate the root, then the bisection replays with
/// far midpoints decided by position.  Same contract and bits as
/// kde_percentile_sorted; bench_micro_hotpaths times the old profile
/// fold with it.
double kde_percentile_exact_newton(std::span<const double> sorted,
                                   double bandwidth, double p,
                                   int max_iterations, double rel_tol);

}  // namespace fadewich::oracle
