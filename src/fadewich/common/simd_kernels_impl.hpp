// Width-generic implementations behind simd_kernels.hpp.
//
// Included ONLY by the kernel translation units (simd_kernels.cpp and
// simd_kernels_avx2.cpp, the latter compiled with -mavx2).  Everything
// lives in an anonymous namespace on purpose: template instantiations
// get internal linkage, so the linker can never satisfy the baseline
// unit's VScalar tail code with the AVX2-compiled copy (which would
// smuggle AVX2 encodings into code reachable on a non-AVX2 host).
//
// Bit-exactness contract: each backend exposes the same op set with
// identical per-lane IEEE-754 semantics (min/max use the SSE rule
// `(a OP b) ? a : b`; no FMA; the TUs compile with -ffp-contract=off),
// and every kernel walks its reduction in the same order at any width.
// Lane j of any table therefore produces the same bits as the scalar
// table — the property the SIMD equivalence suites assert with EXPECT_EQ.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "fadewich/common/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace fadewich::simd {
namespace {

// --- vector backends -------------------------------------------------

struct VScalar {
  static constexpr std::size_t kLanes = 1;
  double v;
  using Mask = bool;
  static VScalar load(const double* p) { return {*p}; }
  static void store(double* p, VScalar a) { *p = a.v; }
  static VScalar splat(double x) { return {x}; }
  static VScalar add(VScalar a, VScalar b) { return {a.v + b.v}; }
  static VScalar sub(VScalar a, VScalar b) { return {a.v - b.v}; }
  static VScalar mul(VScalar a, VScalar b) { return {a.v * b.v}; }
  static VScalar div(VScalar a, VScalar b) { return {a.v / b.v}; }
  static VScalar sqrt(VScalar a) { return {std::sqrt(a.v)}; }
  static VScalar neg(VScalar a) { return {-a.v}; }
  // SSE minpd/maxpd semantics: (a OP b) ? a : b, second operand on
  // unordered — NOT std::min/std::max, which return the first.
  static VScalar min(VScalar a, VScalar b) { return {a.v < b.v ? a.v : b.v}; }
  static VScalar max(VScalar a, VScalar b) { return {a.v > b.v ? a.v : b.v}; }
  static Mask cmp_gt(VScalar a, VScalar b) { return a.v > b.v; }
  static Mask cmp_lt(VScalar a, VScalar b) { return a.v < b.v; }
  static Mask is_nan(VScalar a) { return a.v != a.v; }
  static VScalar blend(Mask m, VScalar a, VScalar b) { return m ? a : b; }
  /// n = nearest-even integer of x (as a double); p2 = 2^n via exponent
  /// bits.  Well-defined only for |x| < ~2^31; vexp clamps first.
  static void round_pow2(VScalar x, VScalar& n, VScalar& p2) {
    const double nd = std::nearbyint(x.v);
    n.v = nd;
    const auto ni = static_cast<std::int64_t>(nd);
    p2.v = std::bit_cast<double>(static_cast<std::uint64_t>(ni + 1023)
                                 << 52);
  }
};

#if defined(__x86_64__) || defined(_M_X64)

struct VSse2 {
  static constexpr std::size_t kLanes = 2;
  __m128d v;
  using Mask = __m128d;
  static VSse2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static void store(double* p, VSse2 a) { _mm_storeu_pd(p, a.v); }
  static VSse2 splat(double x) { return {_mm_set1_pd(x)}; }
  static VSse2 add(VSse2 a, VSse2 b) { return {_mm_add_pd(a.v, b.v)}; }
  static VSse2 sub(VSse2 a, VSse2 b) { return {_mm_sub_pd(a.v, b.v)}; }
  static VSse2 mul(VSse2 a, VSse2 b) { return {_mm_mul_pd(a.v, b.v)}; }
  static VSse2 div(VSse2 a, VSse2 b) { return {_mm_div_pd(a.v, b.v)}; }
  static VSse2 sqrt(VSse2 a) { return {_mm_sqrt_pd(a.v)}; }
  static VSse2 neg(VSse2 a) {
    return {_mm_xor_pd(a.v, _mm_set1_pd(-0.0))};
  }
  static VSse2 min(VSse2 a, VSse2 b) { return {_mm_min_pd(a.v, b.v)}; }
  static VSse2 max(VSse2 a, VSse2 b) { return {_mm_max_pd(a.v, b.v)}; }
  static Mask cmp_gt(VSse2 a, VSse2 b) { return _mm_cmpgt_pd(a.v, b.v); }
  static Mask cmp_lt(VSse2 a, VSse2 b) { return _mm_cmplt_pd(a.v, b.v); }
  static Mask is_nan(VSse2 a) { return _mm_cmpunord_pd(a.v, a.v); }
  static VSse2 blend(Mask m, VSse2 a, VSse2 b) {
    return {_mm_or_pd(_mm_and_pd(m, a.v), _mm_andnot_pd(m, b.v))};
  }
  static void round_pow2(VSse2 x, VSse2& n, VSse2& p2) {
    // cvtpd_epi32 rounds to nearest-even under the default MXCSR mode,
    // matching std::nearbyint; the 64-bit widen is a manual sign-extend
    // (cvtepi32_epi64 is SSE4.1).
    const __m128i n32 = _mm_cvtpd_epi32(x.v);
    n.v = _mm_cvtepi32_pd(n32);
    __m128i n64 = _mm_unpacklo_epi32(n32, _mm_srai_epi32(n32, 31));
    n64 = _mm_add_epi64(n64, _mm_set1_epi64x(1023));
    p2.v = _mm_castsi128_pd(_mm_slli_epi64(n64, 52));
  }
};

#endif  // x86-64

#if defined(__AVX2__)

struct VAvx2 {
  static constexpr std::size_t kLanes = 4;
  __m256d v;
  using Mask = __m256d;
  static VAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, VAvx2 a) { _mm256_storeu_pd(p, a.v); }
  static VAvx2 splat(double x) { return {_mm256_set1_pd(x)}; }
  static VAvx2 add(VAvx2 a, VAvx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  static VAvx2 sub(VAvx2 a, VAvx2 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  static VAvx2 mul(VAvx2 a, VAvx2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static VAvx2 div(VAvx2 a, VAvx2 b) { return {_mm256_div_pd(a.v, b.v)}; }
  static VAvx2 sqrt(VAvx2 a) { return {_mm256_sqrt_pd(a.v)}; }
  static VAvx2 neg(VAvx2 a) {
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  static VAvx2 min(VAvx2 a, VAvx2 b) { return {_mm256_min_pd(a.v, b.v)}; }
  static VAvx2 max(VAvx2 a, VAvx2 b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Mask cmp_gt(VAvx2 a, VAvx2 b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  }
  static Mask cmp_lt(VAvx2 a, VAvx2 b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  }
  static Mask is_nan(VAvx2 a) {
    return _mm256_cmp_pd(a.v, a.v, _CMP_UNORD_Q);
  }
  static VAvx2 blend(Mask m, VAvx2 a, VAvx2 b) {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }
  static void round_pow2(VAvx2 x, VAvx2& n, VAvx2& p2) {
    const __m128i n32 = _mm256_cvtpd_epi32(x.v);
    n.v = _mm256_cvtepi32_pd(n32);
    __m256i n64 = _mm256_cvtepi32_epi64(n32);
    n64 = _mm256_add_epi64(n64, _mm256_set1_epi64x(1023));
    p2.v = _mm256_castsi256_pd(_mm256_slli_epi64(n64, 52));
  }
};

#endif  // __AVX2__

#if defined(__aarch64__)

struct VNeon {
  static constexpr std::size_t kLanes = 2;
  float64x2_t v;
  using Mask = uint64x2_t;
  static VNeon load(const double* p) { return {vld1q_f64(p)}; }
  static void store(double* p, VNeon a) { vst1q_f64(p, a.v); }
  static VNeon splat(double x) { return {vdupq_n_f64(x)}; }
  static VNeon add(VNeon a, VNeon b) { return {vaddq_f64(a.v, b.v)}; }
  static VNeon sub(VNeon a, VNeon b) { return {vsubq_f64(a.v, b.v)}; }
  static VNeon mul(VNeon a, VNeon b) { return {vmulq_f64(a.v, b.v)}; }
  static VNeon div(VNeon a, VNeon b) { return {vdivq_f64(a.v, b.v)}; }
  static VNeon sqrt(VNeon a) { return {vsqrtq_f64(a.v)}; }
  static VNeon neg(VNeon a) { return {vnegq_f64(a.v)}; }
  // Built from compare+select so the -0/NaN corner semantics match the
  // SSE rule instead of vminq/vmaxq's NaN propagation.
  static VNeon min(VNeon a, VNeon b) {
    return blend(vcltq_f64(a.v, b.v), a, b);
  }
  static VNeon max(VNeon a, VNeon b) {
    return blend(vcgtq_f64(a.v, b.v), a, b);
  }
  static Mask cmp_gt(VNeon a, VNeon b) { return vcgtq_f64(a.v, b.v); }
  static Mask cmp_lt(VNeon a, VNeon b) { return vcltq_f64(a.v, b.v); }
  static Mask is_nan(VNeon a) {
    return vreinterpretq_u64_u32(
        vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(a.v, a.v))));
  }
  static VNeon blend(Mask m, VNeon a, VNeon b) {
    return {vbslq_f64(m, a.v, b.v)};
  }
  static void round_pow2(VNeon x, VNeon& n, VNeon& p2) {
    const int64x2_t ni = vcvtnq_s64_f64(x.v);  // nearest-even
    n.v = vcvtq_f64_s64(ni);
    p2.v = vreinterpretq_f64_s64(
        vshlq_n_s64(vaddq_s64(ni, vdupq_n_s64(1023)), 52));
  }
};

#endif  // __aarch64__

// --- fast exponential ------------------------------------------------

// Cephes-style expl: n = nearest(x * log2(e)); Cody-Waite reduction
// r = x - n*C1 - n*C2; exp(r) via a Pade ratio in r^2; scale by 2^n from
// exponent bits.  ~2 ulp over the normal range.  x > kMaxArg -> +inf;
// x < kMinArg -> 0 (results below the smallest normal flush to zero);
// NaN passes through.  The input is clamped before the integer round so
// the double->int conversion is always in range (no UB at +-inf/NaN).
inline constexpr double kExpLog2e = 1.4426950408889634073599;
inline constexpr double kExpC1 = 6.93145751953125e-1;
inline constexpr double kExpC2 = 1.42860682030941723212e-6;
inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;
inline constexpr double kExpMaxArg = 709.782712893383996843;
inline constexpr double kExpMinArg = -708.396418532264106224;

template <typename V>
[[gnu::always_inline]] inline V vexp(V x) {
  const V xm = V::max(V::min(x, V::splat(710.0)), V::splat(-745.0));
  V n;
  V p2;
  V::round_pow2(V::mul(xm, V::splat(kExpLog2e)), n, p2);
  V r = V::sub(xm, V::mul(n, V::splat(kExpC1)));
  r = V::sub(r, V::mul(n, V::splat(kExpC2)));
  const V rr = V::mul(r, r);
  const V px = V::mul(
      r, V::add(V::mul(V::add(V::mul(V::splat(kExpP0), rr),
                              V::splat(kExpP1)),
                       rr),
                V::splat(kExpP2)));
  const V qx = V::add(
      V::mul(V::add(V::mul(V::add(V::mul(V::splat(kExpQ0), rr),
                                  V::splat(kExpQ1)),
                           rr),
                    V::splat(kExpQ2)),
             rr),
      V::splat(kExpQ3));
  const V e = V::div(px, V::sub(qx, px));
  V res = V::mul(V::add(V::splat(1.0), V::add(e, e)), p2);
  res = V::blend(V::cmp_gt(x, V::splat(kExpMaxArg)),
                 V::splat(std::numeric_limits<double>::infinity()), res);
  res = V::blend(V::cmp_lt(x, V::splat(kExpMinArg)), V::splat(0.0), res);
  res = V::blend(V::is_nan(x), x, res);
  return res;
}

// --- kernels ---------------------------------------------------------
//
// Each kernel runs full vectors then recurses on the remainder with the
// scalar backend, so ragged lengths share the exact per-lane sequence.

template <typename V>
void k_exp_block(const double* x, double* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    V::store(out + j, vexp(V::load(x + j)));
  }
  if constexpr (V::kLanes > 1) {
    k_exp_block<VScalar>(x + j, out + j, n - j);
  }
}

template <typename V>
void k_kde_expsum_block(const double* samples, std::size_t count,
                        const double* xs, std::size_t nq, double inv_bw,
                        double* acc) {
  const V ibw = V::splat(inv_bw);
  const V mhalf = V::splat(-0.5);
  std::size_t j = 0;
  for (; j + V::kLanes <= nq; j += V::kLanes) {
    const V x = V::load(xs + j);
    V a = V::load(acc + j);
    for (std::size_t i = 0; i < count; ++i) {
      const V u = V::mul(V::sub(x, V::splat(samples[i])), ibw);
      // (-0.5 * u) * u: the scalar expression's association.
      a = V::add(a, vexp(V::mul(V::mul(mhalf, u), u)));
    }
    V::store(acc + j, a);
  }
  if constexpr (V::kLanes > 1) {
    k_kde_expsum_block<VScalar>(samples, count, xs + j, nq - j, inv_bw,
                                acc + j);
  }
}

template <typename V>
void k_kde_erfsum_block(const double* samples, std::size_t count,
                        const double* xs, std::size_t nq, double inv_bw,
                        double* acc) {
  // Exact path: libm erf per lane, same for every table.  The surrounding
  // arithmetic keeps the pre-SIMD association ((x - s) * inv_bw) * c.
  constexpr double kInvSqrt2 = 0.7071067811865476;
  for (std::size_t j = 0; j < nq; ++j) {
    double a = acc[j];
    const double x = xs[j];
    for (std::size_t i = 0; i < count; ++i) {
      a += 0.5 * (1.0 + std::erf((x - samples[i]) * inv_bw * kInvSqrt2));
    }
    acc[j] = a;
  }
}

// Phi~(u) = 0.5 * erfc(|u| / sqrt2), mirrored for u > 0, with
// erfc(z) = exp(-z^2) * h(s): t = 1 / (1 + 0.3 z) is mapped onto
// s in [-1, 1] over z in [0, 5.7] (|u| <= 8.06, the pruning window), and
// h is the degree-14 Chebyshev interpolant of erfc(z) exp(z^2) at the
// Chebyshev nodes, expanded in powers of s so Estrin's scheme can
// evaluate it in four dependent steps.  |Phi~ - Phi| < kPhiApproxMaxError.
inline constexpr double kErfcT = 0.3;
inline constexpr double kErfcScale = 3.1695906432748537;  // 2 / (1 - t0)
inline constexpr double kErfcShift = 2.1695906432748537;  // (1 + t0) / (1 - t0)
inline constexpr double kErfcPoly[] = {
    0.31573075060605366,    0.3551060512348968,    0.20238222888988913,
    0.08910694165503141,    0.02971893437448984,   0.0070429522561941274,
    0.0009604884037132925,  -1.4556974569579496e-05, -3.191914243227956e-05,
    -2.9453831868882695e-06, 9.560693424504053e-07, 1.588179524484682e-07,
    -3.631487572874903e-08, -6.00405201112153e-09, 1.5115441935146615e-09};

/// Approximate normal CDF Phi~(u) and density kernel exp(-u^2 / 2).
template <typename V>
void vphi_exp(V u, V& phi, V& e) {
  constexpr double kInvSqrt2 = 0.7071067811865476;
  const auto c = [](std::size_t k) { return V::splat(kErfcPoly[k]); };
  e = vexp(V::mul(V::mul(V::splat(-0.5), u), u));
  const V z = V::mul(V::max(u, V::neg(u)), V::splat(kInvSqrt2));
  const V t = V::div(V::splat(1.0),
                     V::add(V::splat(1.0), V::mul(z, V::splat(kErfcT))));
  const V s = V::sub(V::mul(t, V::splat(kErfcScale)), V::splat(kErfcShift));
  const V s2 = V::mul(s, s);
  const V s4 = V::mul(s2, s2);
  const V s8 = V::mul(s4, s4);
  V p[7];
  for (std::size_t k = 0; k < 7; ++k) {
    p[k] = V::add(c(2 * k), V::mul(c(2 * k + 1), s));
  }
  const V q0 = V::add(p[0], V::mul(p[1], s2));
  const V q1 = V::add(p[2], V::mul(p[3], s2));
  const V q2 = V::add(p[4], V::mul(p[5], s2));
  const V q3 = V::add(p[6], V::mul(c(14), s2));
  const V h = V::add(V::add(q0, V::mul(q1, s4)),
                     V::mul(V::add(q2, V::mul(q3, s4)), s8));
  const V tail = V::mul(V::mul(V::splat(0.5), h), e);
  phi = V::blend(V::cmp_lt(u, V::splat(0.0)), tail,
                 V::sub(V::splat(1.0), tail));
}

template <typename V>
void k_kde_cdfpdf_approx(const double* samples, std::size_t count,
                         double x, double inv_bw, double* sums) {
  // Four partial sums at every width: kVecs vectors of kLanes lanes.
  constexpr std::size_t kPartials = 4;
  constexpr std::size_t kVecs = kPartials / V::kLanes;
  static_assert(kVecs * V::kLanes == kPartials);
  double c[kPartials] = {};
  double d[kPartials] = {};
  // The ragged tail (sample body + r into partial r) runs first, so the
  // function ends on the vector path, whose exit clears the upper
  // register state; ending on the scalar calls left it dirty, which
  // slows every later SSE libm call (erf, exp) until the next clear.
  const std::size_t body = count - count % kPartials;
  for (std::size_t r = 0; body + r < count; ++r) {
    VScalar phi;
    VScalar e;
    vphi_exp(VScalar{(x - samples[body + r]) * inv_bw}, phi, e);
    c[r] += phi.v;
    d[r] += e.v;
  }
  const V xv = V::splat(x);
  const V ibw = V::splat(inv_bw);
  V cdf[kVecs];
  V pdf[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) {
    cdf[k] = V::load(c + k * V::kLanes);
    pdf[k] = V::load(d + k * V::kLanes);
  }
  for (std::size_t i = 0; i < body; i += kPartials) {
    for (std::size_t k = 0; k < kVecs; ++k) {
      const V u = V::mul(V::sub(xv, V::load(samples + i + k * V::kLanes)),
                         ibw);
      V phi;
      V e;
      vphi_exp(u, phi, e);
      cdf[k] = V::add(cdf[k], phi);
      pdf[k] = V::add(pdf[k], e);
    }
  }
  for (std::size_t k = 0; k < kVecs; ++k) {
    V::store(c + k * V::kLanes, cdf[k]);
    V::store(d + k * V::kLanes, pdf[k]);
  }
  sums[0] += (c[0] + c[1]) + (c[2] + c[3]);
  sums[1] += (d[0] + d[1]) + (d[2] + d[3]);
}

// The two SVM kernels walk four vectors of lanes per pass where nq
// allows (independent adds hide the add latency), then one, then the
// scalar tail; every lane still sums its own dimensions in order.
template <typename V>
void k_dot_block(const double* s, std::size_t dim, const double* qt,
                 std::size_t qstride, std::size_t nq, double* t) {
  constexpr std::size_t L = V::kLanes;
  std::size_t j = 0;
  for (; j + 4 * L <= nq; j += 4 * L) {
    V a0 = V::load(t + j);
    V a1 = V::load(t + j + L);
    V a2 = V::load(t + j + 2 * L);
    V a3 = V::load(t + j + 3 * L);
    for (std::size_t d = 0; d < dim; ++d) {
      const V sd = V::splat(s[d]);
      const double* q = qt + d * qstride + j;
      a0 = V::add(a0, V::mul(sd, V::load(q)));
      a1 = V::add(a1, V::mul(sd, V::load(q + L)));
      a2 = V::add(a2, V::mul(sd, V::load(q + 2 * L)));
      a3 = V::add(a3, V::mul(sd, V::load(q + 3 * L)));
    }
    V::store(t + j, a0);
    V::store(t + j + L, a1);
    V::store(t + j + 2 * L, a2);
    V::store(t + j + 3 * L, a3);
  }
  for (; j + L <= nq; j += L) {
    V acc = V::load(t + j);
    for (std::size_t d = 0; d < dim; ++d) {
      acc = V::add(acc,
                   V::mul(V::splat(s[d]), V::load(qt + d * qstride + j)));
    }
    V::store(t + j, acc);
  }
  if constexpr (L > 1) {
    k_dot_block<VScalar>(s, dim, qt + j, qstride, nq - j, t + j);
  }
}

template <typename V>
void k_sqdist_block(const double* s, std::size_t dim, const double* qt,
                    std::size_t qstride, std::size_t nq, double* t) {
  constexpr std::size_t L = V::kLanes;
  const auto step = [](V acc, V sd, const double* q) {
    const V diff = V::sub(sd, V::load(q));
    return V::add(acc, V::mul(diff, diff));
  };
  std::size_t j = 0;
  for (; j + 4 * L <= nq; j += 4 * L) {
    V a0 = V::load(t + j);
    V a1 = V::load(t + j + L);
    V a2 = V::load(t + j + 2 * L);
    V a3 = V::load(t + j + 3 * L);
    for (std::size_t d = 0; d < dim; ++d) {
      const V sd = V::splat(s[d]);
      const double* q = qt + d * qstride + j;
      a0 = step(a0, sd, q);
      a1 = step(a1, sd, q + L);
      a2 = step(a2, sd, q + 2 * L);
      a3 = step(a3, sd, q + 3 * L);
    }
    V::store(t + j, a0);
    V::store(t + j + L, a1);
    V::store(t + j + 2 * L, a2);
    V::store(t + j + 3 * L, a3);
  }
  for (; j + L <= nq; j += L) {
    V acc = V::load(t + j);
    for (std::size_t d = 0; d < dim; ++d) {
      acc = step(acc, V::splat(s[d]), qt + d * qstride + j);
    }
    V::store(t + j, acc);
  }
  if constexpr (L > 1) {
    k_sqdist_block<VScalar>(s, dim, qt + j, qstride, nq - j, t + j);
  }
}

template <typename V>
void k_rbf_accum_block(const double* t, std::size_t n, double w,
                       double gamma, double* acc) {
  // Exact path: libm exp — a decision value's sign classifies.
  for (std::size_t j = 0; j < n; ++j) {
    acc[j] += w * std::exp(-gamma * t[j]);
  }
}

template <typename V>
void k_welford_push_full(double* slot, const double* values, double* mean,
                         double* m2, double window_n, std::size_t n) {
  const V wn = V::splat(window_n);
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const V v = V::load(values + j);
    const V evicted = V::load(slot + j);
    V m = V::load(mean + j);
    const V delta = V::sub(v, evicted);
    const V dev_old = V::sub(evicted, m);
    m = V::add(m, V::div(delta, wn));
    const V dev_new = V::sub(v, m);
    const V m2v = V::add(V::load(m2 + j),
                         V::mul(delta, V::add(dev_old, dev_new)));
    V::store(mean + j, m);
    V::store(m2 + j, m2v);
    V::store(slot + j, v);
  }
  if constexpr (V::kLanes > 1) {
    k_welford_push_full<VScalar>(slot + j, values + j, mean + j, m2 + j,
                                 window_n, n - j);
  }
}

template <typename V>
void k_welford_push_grow(double* slot, const double* values, double* mean,
                         double* m2, double new_size, std::size_t n) {
  const V ns = V::splat(new_size);
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const V v = V::load(values + j);
    V m = V::load(mean + j);
    const V delta = V::sub(v, m);
    m = V::add(m, V::div(delta, ns));
    const V m2v = V::add(V::load(m2 + j), V::mul(delta, V::sub(v, m)));
    V::store(mean + j, m);
    V::store(m2 + j, m2v);
    V::store(slot + j, v);
  }
  if constexpr (V::kLanes > 1) {
    k_welford_push_grow<VScalar>(slot + j, values + j, mean + j, m2 + j,
                                 new_size, n - j);
  }
}

template <typename V>
void k_stddev_from_m2(const double* m2, double window_n, double* out,
                      std::size_t n) {
  const V wn = V::splat(window_n);
  const V zero = V::splat(0.0);
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    V var = V::div(V::load(m2 + j), wn);
    var = V::blend(V::cmp_gt(var, zero), var, zero);
    V::store(out + j, V::sqrt(var));
  }
  if constexpr (V::kLanes > 1) {
    k_stddev_from_m2<VScalar>(m2 + j, window_n, out + j, n - j);
  }
}

template <typename V>
void k_colsum(const double* data, std::size_t rows, std::size_t stride,
              double* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    V acc = V::splat(0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      acc = V::add(acc, V::load(data + r * stride + j));
    }
    V::store(out + j, acc);
  }
  if constexpr (V::kLanes > 1) {
    k_colsum<VScalar>(data + j, rows, stride, out + j, n - j);
  }
}

template <typename V>
void k_coldev2(const double* data, std::size_t rows, std::size_t stride,
               const double* mean, double* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const V m = V::load(mean + j);
    V acc = V::splat(0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const V d = V::sub(V::load(data + r * stride + j), m);
      acc = V::add(acc, V::mul(d, d));
    }
    V::store(out + j, acc);
  }
  if constexpr (V::kLanes > 1) {
    k_coldev2<VScalar>(data + j, rows, stride, mean + j, out + j, n - j);
  }
}

template <typename V>
void k_collagprod(const double* data, std::size_t rows, std::size_t lag,
                  std::size_t stride, const double* mean, double* out,
                  std::size_t n) {
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const V m = V::load(mean + j);
    V acc = V::splat(0.0);
    for (std::size_t r = 0; r + lag < rows; ++r) {
      const V a = V::sub(V::load(data + r * stride + j), m);
      const V b = V::sub(V::load(data + (r + lag) * stride + j), m);
      acc = V::add(acc, V::mul(a, b));
    }
    V::store(out + j, acc);
  }
  if constexpr (V::kLanes > 1) {
    k_collagprod<VScalar>(data + j, rows, lag, stride, mean + j, out + j,
                          n - j);
  }
}

template <typename V>
void k_colsort(double* data, std::size_t rows, std::size_t stride,
               std::size_t n) {
  // Rounds outermost: every exchange of a round is independent, and the
  // block stays in L1 across the rounds.
  const std::size_t full = n - n % V::kLanes;
  for (std::size_t round = 0; round < rows; ++round) {
    for (std::size_t r = round % 2; r + 1 < rows; r += 2) {
      double* a = data + r * stride;
      double* b = a + stride;
      for (std::size_t j = 0; j < full; j += V::kLanes) {
        const V x = V::load(a + j);
        const V y = V::load(b + j);
        V::store(a + j, V::min(x, y));
        V::store(b + j, V::max(x, y));
      }
    }
  }
  if constexpr (V::kLanes > 1) {
    k_colsort<VScalar>(data + full, rows, stride, n - full);
  }
}

// Columns [0, w) of a sorted block, w <= 8, one scalar lane per column:
// row-outer so each row's w values are one contiguous read.
inline void colentropy_lanes(const double* sorted, std::size_t rows,
                             std::size_t stride, const double* plogp,
                             double* out, std::size_t w) {
  double h[8];
  std::size_t count[8];
  for (std::size_t c = 0; c < w; ++c) {
    h[c] = 0.0;
    count[c] = 1;
  }
  for (std::size_t i = 1; i < rows; ++i) {
    const double* cur = sorted + i * stride;
    const double* prev = cur - stride;
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t boundary = cur[c] != prev[c] ? 1 : 0;
      h[c] -= plogp[count[c] * boundary];
      count[c] = 1 + count[c] * (1 - boundary);
    }
  }
  for (std::size_t c = 0; c < w; ++c) out[c] = h[c] - plogp[count[c]];
}

template <typename V>
void k_colentropy(const double* sorted, std::size_t rows,
                  std::size_t stride, const double* plogp, double* out,
                  std::size_t n) {
  std::size_t j = 0;
#if defined(__AVX2__)
  if constexpr (std::is_same_v<V, VAvx2>) {
    // Two vectors of four columns per pass.  Lane counts are int64: the
    // table index is count where a run ends (the compare mask), else 0,
    // and the next count is (count where no run ended) + 1.
    const __m256i one = _mm256_set1_epi64x(1);
    for (; j + 8 <= n; j += 8) {
      __m256d h0 = _mm256_setzero_pd();
      __m256d h1 = _mm256_setzero_pd();
      __m256i n0 = one;
      __m256i n1 = one;
      for (std::size_t i = 1; i < rows; ++i) {
        const double* cur = sorted + i * stride + j;
        const double* prev = cur - stride;
        const __m256i b0 = _mm256_castpd_si256(_mm256_cmp_pd(
            _mm256_loadu_pd(cur), _mm256_loadu_pd(prev), _CMP_NEQ_UQ));
        const __m256i b1 = _mm256_castpd_si256(_mm256_cmp_pd(
            _mm256_loadu_pd(cur + 4), _mm256_loadu_pd(prev + 4),
            _CMP_NEQ_UQ));
        h0 = _mm256_sub_pd(
            h0, _mm256_i64gather_pd(plogp, _mm256_and_si256(b0, n0), 8));
        h1 = _mm256_sub_pd(
            h1, _mm256_i64gather_pd(plogp, _mm256_and_si256(b1, n1), 8));
        n0 = _mm256_add_epi64(_mm256_andnot_si256(b0, n0), one);
        n1 = _mm256_add_epi64(_mm256_andnot_si256(b1, n1), one);
      }
      _mm256_storeu_pd(out + j,
                       _mm256_sub_pd(h0, _mm256_i64gather_pd(plogp, n0, 8)));
      _mm256_storeu_pd(out + j + 4,
                       _mm256_sub_pd(h1, _mm256_i64gather_pd(plogp, n1, 8)));
    }
  }
#endif
  for (; j < n; j += 8) {
    colentropy_lanes(sorted + j, rows, stride, plogp, out + j,
                     n - j < 8 ? n - j : 8);
  }
}

template <typename V>
void k_shadow_body_pass(const ShadowGeomView& g, std::size_t n,
                        const ShadowParams& p, double* rssi,
                        double* noise_var) {
  if constexpr (V::kLanes > 1) {
    // Short banks go straight to the scalar body: skipping the vector
    // splats keeps sub-lane calls cheap (no wide-register warm-up for a
    // handful of streams).
    if (n < V::kLanes) {
      k_shadow_body_pass<VScalar>(g, n, p, rssi, noise_var);
      return;
    }
  }
  const V px = V::splat(p.px);
  const V py = V::splat(p.py);
  const bool noisy = p.motion_coeff != 0.0 || p.ambient_coeff != 0.0;
  std::size_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const V ax = V::load(g.ax + j);
    const V ay = V::load(g.ay + j);
    // excess = |a - p| + |p - b| - length (the operand orders the scalar
    // geometry helpers use).
    const V dax = V::sub(ax, px);
    const V day = V::sub(ay, py);
    const V da = V::sqrt(V::add(V::mul(dax, dax), V::mul(day, day)));
    const V dbx = V::sub(px, V::load(g.bx + j));
    const V dby = V::sub(py, V::load(g.by + j));
    const V db = V::sqrt(V::add(V::mul(dbx, dbx), V::mul(dby, dby)));
    const V excess = V::sub(V::add(da, db), V::load(g.length + j));
    const V att =
        V::mul(V::splat(p.max_attenuation_db),
               vexp(V::div(V::neg(excess), V::splat(p.shadow_decay_m))));
    V::store(rssi + j, V::sub(V::load(rssi + j), att));
    if (noisy) {
      const V mo =
          V::mul(V::splat(p.motion_coeff),
                 vexp(V::div(V::neg(excess), V::splat(p.motion_decay_m))));
      // Point-segment distance, mirroring the scalar clamp/projection.
      const V dirx = V::load(g.dirx + j);
      const V diry = V::load(g.diry + j);
      V t = V::mul(V::add(V::mul(V::sub(px, ax), dirx),
                          V::mul(V::sub(py, ay), diry)),
                   V::load(g.inv_len2 + j));
      t = V::min(V::max(t, V::splat(0.0)), V::splat(1.0));
      const V dx = V::sub(px, V::add(ax, V::mul(dirx, t)));
      const V dy = V::sub(py, V::add(ay, V::mul(diry, t)));
      const V d = V::sqrt(V::add(V::mul(dx, dx), V::mul(dy, dy)));
      const V am =
          V::mul(V::splat(p.ambient_coeff),
                 vexp(V::div(V::neg(d), V::splat(p.ambient_decay_m))));
      // One combined add, like `noise_var += motion^2 + ambient^2`.
      V::store(noise_var + j,
               V::add(V::load(noise_var + j),
                      V::add(V::mul(mo, mo), V::mul(am, am))));
    }
  }
  if constexpr (V::kLanes > 1) {
    const ShadowGeomView tail{g.ax + j,   g.ay + j,     g.bx + j,
                              g.by + j,   g.dirx + j,   g.diry + j,
                              g.length + j, g.inv_len2 + j};
    k_shadow_body_pass<VScalar>(tail, n - j, p, rssi + j, noise_var + j);
  }
}

template <typename V>
KernelTable make_table(Isa isa) {
  KernelTable t;
  t.isa = isa;
  t.exp_block = &k_exp_block<V>;
  t.kde_expsum_block = &k_kde_expsum_block<V>;
  t.kde_erfsum_block = &k_kde_erfsum_block<V>;
  t.kde_cdfpdf_approx = &k_kde_cdfpdf_approx<V>;
  t.dot_block = &k_dot_block<V>;
  t.sqdist_block = &k_sqdist_block<V>;
  t.rbf_accum_block = &k_rbf_accum_block<V>;
  t.welford_push_full = &k_welford_push_full<V>;
  t.welford_push_grow = &k_welford_push_grow<V>;
  t.stddev_from_m2 = &k_stddev_from_m2<V>;
  t.colsum = &k_colsum<V>;
  t.coldev2 = &k_coldev2<V>;
  t.collagprod = &k_collagprod<V>;
  t.colsort = &k_colsort<V>;
  t.colentropy = &k_colentropy<V>;
  t.shadow_body_pass = &k_shadow_body_pass<V>;
  return t;
}

}  // namespace
}  // namespace fadewich::simd
