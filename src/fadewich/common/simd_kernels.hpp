// The function-pointer table behind every SIMD-dispatched hot kernel.
//
// Call sites (ml/kde.cpp, ml/svm.cpp, ml/multiclass_svm.cpp,
// stats/window_bank.cpp, core/features.cpp, rf/channel.cpp) fetch
// `active_kernels()` and call through the pointers; benches and
// equivalence tests fetch specific tables with `kernel_table(Isa)` to pin
// a path.  All entries share two invariants:
//
//  * Per-lane determinism: lane j of any entry performs the identical
//    IEEE-754 double sequence at every vector width (the kernels are one
//    template instantiated per ISA; the kernel translation units are
//    built with -ffp-contract=off and use no FMA intrinsics), so tables
//    agree bit-for-bit and the scalar table is the reference.
//  * Accumulation order: entries that fold over samples / support
//    vectors / bodies do so in the caller-visible order the pre-SIMD
//    scalar code used, so porting a call site changes no result.
//
// exp policy per entry: kde_expsum_block and shadow_body_pass use the
// shim's fast_exp (~2 ulp — both feed sums compared at 1e-12 relative
// budgets); kde_erfsum_block and rbf_accum_block keep libm erf/exp, the
// exact path (CDF tails feed percentile() bisection; RBF decisions sign
// a classification).  kde_cdfpdf_approx locates and certifies the
// percentile's root: its bounded error (kPhiApproxMaxError per term)
// widens the certified half-width, inside which midpoints take libm erf.
#pragma once

#include <cstddef>

#include "fadewich/common/simd.hpp"

namespace fadewich::simd {

/// Structure-of-arrays view of link geometry for the shadowing pass:
/// entry j describes link j's segment (endpoints, direction, cached
/// length and 1/|dir|^2 — 0 for degenerate segments).
struct ShadowGeomView {
  const double* ax = nullptr;
  const double* ay = nullptr;
  const double* bx = nullptr;
  const double* by = nullptr;
  const double* dirx = nullptr;
  const double* diry = nullptr;
  const double* length = nullptr;
  const double* inv_len2 = nullptr;
};

/// One body's contribution parameters, precomputed once per (tick, body)
/// so every link sees the identical scalars the per-link model computed.
struct ShadowParams {
  double px = 0.0;  // body position
  double py = 0.0;
  double max_attenuation_db = 0.0;
  double shadow_decay_m = 1.0;
  double motion_coeff = 0.0;  // motion_noise_db * speed_factor; 0 skips
  double motion_decay_m = 1.0;
  double ambient_coeff = 0.0;  // ambient_motion_db * min(speed, 2); 0 skips
  double ambient_decay_m = 1.0;
};

/// Bound on |Phi~(u) - Phi(u)| for one kde_cdfpdf_approx CDF term over
/// |u| <= 8.06, in every table: measured 5.14e-15 at most on a dense
/// grid, plus margin for unsampled u and u's own rounding (< 1e-16).
inline constexpr double kPhiApproxMaxError = 6e-15;

struct KernelTable {
  Isa isa = Isa::kScalar;

  /// out[i] = fast_exp(x[i]).  Exposed for the ULP / special-value tests.
  void (*exp_block)(const double* x, double* out, std::size_t n);

  /// acc[j] += sum_i fast_exp(-0.5 * ((xs[j] - samples[i]) * inv_bw)^2)
  /// accumulated in sample order (the KDE pdf inner loop).
  void (*kde_expsum_block)(const double* samples, std::size_t count,
                           const double* xs, std::size_t nq, double inv_bw,
                           double* acc);

  /// acc[j] += sum_i 0.5 * (1 + erf((xs[j] - samples[i]) * inv_bw *
  /// kInvSqrt2)) in sample order.  erf stays libm (exact path).
  void (*kde_erfsum_block)(const double* samples, std::size_t count,
                           const double* xs, std::size_t nq, double inv_bw,
                           double* acc);

  /// One query's approximate pruned KDE sums over a sample window, for
  /// the percentile root search: with u_i = (x - samples[i]) * inv_bw,
  /// sums[0] += sum_i Phi~(u_i) and sums[1] += sum_i fast_exp(-u_i^2 /
  /// 2), Phi~ the normal CDF from a Chebyshev erfc (kPhiApproxMaxError).
  /// Sample i folds into partial sum i mod 4 and the partials combine as
  /// (p0 + p1) + (p2 + p3), so the vector width never changes the bits.
  void (*kde_cdfpdf_approx)(const double* samples, std::size_t count,
                            double x, double inv_bw, double* sums);

  /// t[j] += dot(s, q_j) over a dimension-major transposed query block:
  /// query j's component d sits at qt[d * qstride + j].
  void (*dot_block)(const double* s, std::size_t dim, const double* qt,
                    std::size_t qstride, std::size_t nq, double* t);

  /// t[j] += ||s - q_j||^2 over the same transposed layout.
  void (*sqdist_block)(const double* s, std::size_t dim, const double* qt,
                       std::size_t qstride, std::size_t nq, double* t);

  /// acc[j] += w * exp(-gamma * t[j]), libm exp (exact path).
  void (*rbf_accum_block)(const double* t, std::size_t n, double w,
                          double gamma, double* acc);

  /// Welford replace step on n parallel full windows: slot[j] holds the
  /// evicted value, values[j] the new one, window_n the (fixed) window
  /// size.  Mirrors stats::RollingWindow::push bit-for-bit.
  void (*welford_push_full)(double* slot, const double* values,
                            double* mean, double* m2, double window_n,
                            std::size_t n);

  /// Welford grow step (windows not yet full): new_size counts the value
  /// being inserted.
  void (*welford_push_grow)(double* slot, const double* values,
                            double* mean, double* m2, double new_size,
                            std::size_t n);

  /// out[j] = sqrt(max(m2[j] / window_n, 0)) — RollingWindow::stddev on
  /// n parallel windows.
  void (*stddev_from_m2)(const double* m2, double window_n, double* out,
                         std::size_t n);

  /// Column reductions over a row-major [rows x stride] block, columns
  /// 0..n-1, accumulated in row order (the scalar stats:: order):
  /// out[c] = sum_r data[r][c].
  void (*colsum)(const double* data, std::size_t rows, std::size_t stride,
                 double* out, std::size_t n);
  /// out[c] = sum_r (data[r][c] - mean[c])^2.
  void (*coldev2)(const double* data, std::size_t rows, std::size_t stride,
                  const double* mean, double* out, std::size_t n);
  /// out[c] = sum_{r + lag < rows} (data[r][c] - mean[c]) *
  ///          (data[r + lag][c] - mean[c]).
  void (*collagprod)(const double* data, std::size_t rows, std::size_t lag,
                     std::size_t stride, const double* mean, double* out,
                     std::size_t n);

  /// Sort columns 0..n-1 of a row-major [rows x stride] block ascending,
  /// in place, by odd-even transposition: rows rounds of min/max
  /// compare-exchanges between neighbouring rows, so no branch depends
  /// on the data.  Values that compare equal may come out with each
  /// other's bits (-0 and +0); requires NaN-free columns.
  void (*colsort)(double* data, std::size_t rows, std::size_t stride,
                  std::size_t n);

  /// Value-frequency entropy of columns 0..n-1 of a row-major [rows x
  /// stride] block whose columns are each sorted ascending, one column
  /// per lane: out[c] = stats::sorted_value_entropy of column c, each
  /// column subtracting plogp[count * boundary] row by row in the same
  /// order.  plogp = stats::plogp_table(rows); requires rows >= 1.
  void (*colentropy)(const double* sorted, std::size_t rows,
                     std::size_t stride, const double* plogp, double* out,
                     std::size_t n);

  /// One body's pass over n links: rssi[j] -= attenuation (the same
  /// sequential subtraction order the per-link loop used) and
  /// noise_var[j] += motion^2 + ambient^2.  fast_exp spatial kernels.
  void (*shadow_body_pass)(const ShadowGeomView& g, std::size_t n,
                           const ShadowParams& p, double* rssi,
                           double* noise_var);
};

/// Table for a specific ISA; falls back toward the scalar table when the
/// build does not carry `isa` (e.g. kAvx2 on a non-x86 build).
const KernelTable& kernel_table(Isa isa);

/// The table active_isa() selected, resolved once.
const KernelTable& active_kernels();

}  // namespace fadewich::simd
