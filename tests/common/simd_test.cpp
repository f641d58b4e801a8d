// SIMD-vs-scalar equivalence suite for the kernel table.
//
// The shim's contract is bit-exactness: every table is the same
// width-generic template, so lane j runs the identical IEEE-754 sequence
// at any vector width.  These tests hold every kernel entry to that
// contract — EXPECT_EQ on doubles, no tolerance — across every table the
// build and host provide, over ragged lengths that exercise the vector
// main loop, the scalar tail, and the empty case.  fast_exp additionally
// gets an absolute accuracy bound (ULPs against libm) and a
// special-value sweep, since it is the one place the shim replaces libm.

#include "fadewich/common/simd_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/common/simd.hpp"
#include "fadewich/stats/histogram.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace fadewich::simd {
namespace {

// Lengths straddling every lane width the shim builds (1, 2, 4): empty,
// single, one under / at / over each boundary, and a large odd run so
// wide tables execute both the main loop and the tail.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 257};

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Bit-identity that treats any NaN encoding pair as equal would be too
// lax — the tables run the same instructions, so we demand the same
// payload too.
void expect_bits_eq(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(bits(a), bits(b)) << what << " lane " << i << ": " << a
                              << " vs " << b;
}

/// Every distinct table reachable on this build/host.  kernel_table()
/// degrades unavailable ISAs toward scalar, so dedupe by the table's own
/// stamp; index 0 is always the scalar reference.
std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> tables{&kernel_table(Isa::kScalar)};
  for (Isa isa : {Isa::kSse2, Isa::kNeon, Isa::kAvx2}) {
    const KernelTable& t = kernel_table(isa);
    bool seen = false;
    for (const KernelTable* have : tables) seen = seen || have->isa == t.isa;
    if (!seen) tables.push_back(&t);
  }
  return tables;
}

std::vector<double> random_vec(Rng& rng, std::size_t n, double lo,
                               double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

std::int64_t ulp_distance(double a, double b) {
  const auto to_ordered = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  return std::abs(to_ordered(a) - to_ordered(b));
}

TEST(FastExp, WithinTwoUlpOfLibmOverNormalRange) {
  // Sweep the full argument range that yields normal results.  Below
  // exp(x) ~ DBL_MIN the shim flushes to zero by design, so the bound
  // applies where both results are normal.
  std::int64_t worst = 0;
  for (double x = -708.0; x <= 709.0; x += 0.37) {
    const double exact = std::exp(x);
    if (exact < std::numeric_limits<double>::min()) continue;
    const std::int64_t d = ulp_distance(fast_exp(x), exact);
    worst = std::max(worst, d);
    ASSERT_LE(d, 2) << "x = " << x;
  }
  // The sweep must have seen real work, not skipped everything.
  EXPECT_GE(worst, 0);
}

TEST(FastExp, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fast_exp(0.0), 1.0);
  EXPECT_EQ(fast_exp(-0.0), 1.0);
  EXPECT_EQ(fast_exp(inf), inf);
  EXPECT_EQ(fast_exp(-inf), 0.0);
  EXPECT_TRUE(std::isnan(fast_exp(std::numeric_limits<double>::quiet_NaN())));
  // Denormal arguments behave like zero (exp(tiny) == 1 exactly).
  EXPECT_EQ(fast_exp(5e-324), 1.0);
  EXPECT_EQ(fast_exp(-5e-324), 1.0);
  // Deep underflow flushes to +0, far overflow saturates to +inf.
  EXPECT_EQ(fast_exp(-746.0), 0.0);
  EXPECT_EQ(fast_exp(-1e9), 0.0);
  EXPECT_EQ(fast_exp(711.0), inf);
  EXPECT_EQ(fast_exp(1e9), inf);
  // Results are never denormal: the flush threshold is the smallest
  // argument whose libm exp is still normal.
  EXPECT_EQ(std::fpclassify(fast_exp(-708.5)), FP_ZERO);
}

TEST(SimdKernels, ExpBlockMatchesScalarIncludingSpecials) {
  const auto tables = available_tables();
  Rng rng(101);
  for (std::size_t n : kLengths) {
    std::vector<double> xs = random_vec(rng, n, -750.0, 715.0);
    // Salt the block with specials at deterministic spots.
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               5e-324, -5e-324, 0.0, -0.0, -709.0};
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) xs[i] = specials[(i / 3) % std::size(specials)];
    }
    std::vector<double> ref(n, -1.0);
    tables[0]->exp_block(xs.data(), ref.data(), n);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> out(n, -2.0);
      tables[ti]->exp_block(xs.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits_eq(out[i], ref[i], isa_name(tables[ti]->isa), i);
      }
    }
  }
}

TEST(SimdKernels, KdeSumBlocksMatchScalar) {
  const auto tables = available_tables();
  Rng rng(202);
  for (std::size_t count : kLengths) {
    for (std::size_t nq : {std::size_t{1}, std::size_t{8}, std::size_t{13}}) {
      const std::vector<double> samples = random_vec(rng, count, -5.0, 5.0);
      const std::vector<double> xs = random_vec(rng, nq, -6.0, 6.0);
      const double inv_bw = 1.0 / 0.37;
      std::vector<double> exp_ref(nq, 0.125), erf_ref(nq, 0.25);
      tables[0]->kde_expsum_block(samples.data(), count, xs.data(), nq,
                                  inv_bw, exp_ref.data());
      tables[0]->kde_erfsum_block(samples.data(), count, xs.data(), nq,
                                  inv_bw, erf_ref.data());
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> exp_out(nq, 0.125), erf_out(nq, 0.25);
        tables[ti]->kde_expsum_block(samples.data(), count, xs.data(), nq,
                                     inv_bw, exp_out.data());
        tables[ti]->kde_erfsum_block(samples.data(), count, xs.data(), nq,
                                     inv_bw, erf_out.data());
        for (std::size_t j = 0; j < nq; ++j) {
          expect_bits_eq(exp_out[j], exp_ref[j], "kde_expsum", j);
          expect_bits_eq(erf_out[j], erf_ref[j], "kde_erfsum", j);
        }
      }
    }
  }
}

TEST(SimdKernels, SvmBlocksMatchScalar) {
  const auto tables = available_tables();
  Rng rng(303);
  const std::size_t dim = 29;  // odd, so dot/sqdist walk a ragged row
  for (std::size_t nq : kLengths) {
    const std::vector<double> s = random_vec(rng, dim, -2.0, 2.0);
    // Dimension-major transposed query block, qstride == nq.
    const std::vector<double> qt = random_vec(rng, dim * nq, -2.0, 2.0);
    std::vector<double> dot_ref(nq, 0.5), sq_ref(nq, 0.5);
    tables[0]->dot_block(s.data(), dim, qt.data(), nq, nq, dot_ref.data());
    tables[0]->sqdist_block(s.data(), dim, qt.data(), nq, nq, sq_ref.data());
    std::vector<double> rbf_ref(nq, -0.75);
    tables[0]->rbf_accum_block(sq_ref.data(), nq, 1.75, 0.31,
                               rbf_ref.data());
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> dot_out(nq, 0.5), sq_out(nq, 0.5);
      std::vector<double> rbf_out(nq, -0.75);
      tables[ti]->dot_block(s.data(), dim, qt.data(), nq, nq,
                            dot_out.data());
      tables[ti]->sqdist_block(s.data(), dim, qt.data(), nq, nq,
                               sq_out.data());
      tables[ti]->rbf_accum_block(sq_out.data(), nq, 1.75, 0.31,
                                  rbf_out.data());
      for (std::size_t j = 0; j < nq; ++j) {
        expect_bits_eq(dot_out[j], dot_ref[j], "dot_block", j);
        expect_bits_eq(sq_out[j], sq_ref[j], "sqdist_block", j);
        expect_bits_eq(rbf_out[j], rbf_ref[j], "rbf_accum", j);
      }
    }
  }
}

TEST(SimdKernels, WelfordRowKernelsMatchScalar) {
  const auto tables = available_tables();
  Rng rng(404);
  const double window_n = 24.0;
  for (std::size_t n : kLengths) {
    // Shared starting state, copied per table; several steps so the
    // running mean / M2 recurrences compound.
    const std::vector<double> mean0 = random_vec(rng, n, -1.0, 1.0);
    const std::vector<double> m2_0 = random_vec(rng, n, 0.0, 4.0);
    const std::vector<double> slot0 = random_vec(rng, n, -3.0, 3.0);
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 5; ++r) rows.push_back(random_vec(rng, n, -3.0, 3.0));

    const auto run = [&](const KernelTable& kt) {
      std::vector<double> mean = mean0, m2 = m2_0, slot = slot0;
      std::vector<double> sd(n, 0.0);
      for (int r = 0; r < 5; ++r) {
        if (r % 2 == 0) {
          kt.welford_push_full(slot.data(), rows[r].data(), mean.data(),
                               m2.data(), window_n, n);
        } else {
          kt.welford_push_grow(slot.data(), rows[r].data(), mean.data(),
                               m2.data(), static_cast<double>(r + 1), n);
        }
      }
      kt.stddev_from_m2(m2.data(), window_n, sd.data(), n);
      mean.insert(mean.end(), m2.begin(), m2.end());
      mean.insert(mean.end(), slot.begin(), slot.end());
      mean.insert(mean.end(), sd.begin(), sd.end());
      return mean;
    };

    const std::vector<double> ref = run(*tables[0]);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      const std::vector<double> out = run(*tables[ti]);
      for (std::size_t i = 0; i < out.size(); ++i) {
        expect_bits_eq(out[i], ref[i], isa_name(tables[ti]->isa), i);
      }
    }
  }
}

TEST(SimdKernels, ColumnReductionsMatchScalar) {
  const auto tables = available_tables();
  Rng rng(505);
  const std::size_t rows = 11, lag = 3;
  for (std::size_t n : kLengths) {
    const std::size_t stride = n + 2;  // reductions must honour stride
    const std::vector<double> data =
        random_vec(rng, rows * stride, -4.0, 4.0);
    std::vector<double> mean_ref(n, 0.0), dev_ref(n, 0.0), lag_ref(n, 0.0);
    tables[0]->colsum(data.data(), rows, stride, mean_ref.data(), n);
    for (double& m : mean_ref) m /= static_cast<double>(rows);
    tables[0]->coldev2(data.data(), rows, stride, mean_ref.data(),
                       dev_ref.data(), n);
    tables[0]->collagprod(data.data(), rows, lag, stride, mean_ref.data(),
                          lag_ref.data(), n);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> mean(n, 0.0), dev(n, 0.0), lagp(n, 0.0);
      tables[ti]->colsum(data.data(), rows, stride, mean.data(), n);
      for (double& m : mean) m /= static_cast<double>(rows);
      tables[ti]->coldev2(data.data(), rows, stride, mean.data(),
                          dev.data(), n);
      tables[ti]->collagprod(data.data(), rows, lag, stride, mean.data(),
                             lagp.data(), n);
      for (std::size_t c = 0; c < n; ++c) {
        expect_bits_eq(mean[c], mean_ref[c], "colsum", c);
        expect_bits_eq(dev[c], dev_ref[c], "coldev2", c);
        expect_bits_eq(lagp[c], lag_ref[c], "collagprod", c);
      }
    }
  }
}

TEST(SimdKernels, ShadowBodyPassMatchesScalar) {
  const auto tables = available_tables();
  Rng rng(606);
  for (std::size_t n : kLengths) {
    // Random link segments in a small room; direction/length/inv_len2
    // derived the way PrecomputedSegment does.
    std::vector<double> ax(n), ay(n), bx(n), by(n), dirx(n), diry(n),
        len(n), il2(n);
    for (std::size_t j = 0; j < n; ++j) {
      ax[j] = rng.uniform(0.0, 8.0);
      ay[j] = rng.uniform(0.0, 6.0);
      bx[j] = rng.uniform(0.0, 8.0);
      by[j] = rng.uniform(0.0, 6.0);
      dirx[j] = bx[j] - ax[j];
      diry[j] = by[j] - ay[j];
      const double l2 = dirx[j] * dirx[j] + diry[j] * diry[j];
      len[j] = std::sqrt(l2);
      il2[j] = l2 > 0.0 ? 1.0 / l2 : 0.0;
    }
    const ShadowGeomView g{ax.data(),   ay.data(),  bx.data(),  by.data(),
                           dirx.data(), diry.data(), len.data(), il2.data()};
    for (bool noisy : {false, true}) {
      ShadowParams p;
      p.px = rng.uniform(0.0, 8.0);
      p.py = rng.uniform(0.0, 6.0);
      p.max_attenuation_db = 9.0;
      p.shadow_decay_m = 0.18;
      p.motion_decay_m = 0.55;
      p.ambient_decay_m = 4.0;
      if (noisy) {
        p.motion_coeff = 3.0;
        p.ambient_coeff = 0.9;
      }
      const std::vector<double> rssi0 = random_vec(rng, n, -80.0, -40.0);
      const std::vector<double> nv0 = random_vec(rng, n, 0.0, 2.0);
      std::vector<double> rssi_ref = rssi0, nv_ref = nv0;
      tables[0]->shadow_body_pass(g, n, p, rssi_ref.data(), nv_ref.data());
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> rssi = rssi0, nv = nv0;
        tables[ti]->shadow_body_pass(g, n, p, rssi.data(), nv.data());
        for (std::size_t j = 0; j < n; ++j) {
          expect_bits_eq(rssi[j], rssi_ref[j], "shadow rssi", j);
          expect_bits_eq(nv[j], nv_ref[j], "shadow noise_var", j);
        }
      }
    }
  }
}

TEST(SimdKernels, KdeCdfPdfApproxMatchesScalarAndLibm) {
  // Every table folds the samples into the same four partial sums, so
  // the sums agree bit for bit; each term is within 1e-14 of libm.
  const auto tables = available_tables();
  Rng rng(707);
  constexpr double kInvSqrt2 = 0.7071067811865476;
  for (std::size_t n : kLengths) {
    const double inv_bw = rng.uniform(0.2, 5.0);
    const double x = rng.uniform(-3.0, 3.0);
    // Samples spread over the whole +-8 bandwidth pruning window.
    const std::vector<double> samples =
        random_vec(rng, n, x - 8.0 / inv_bw, x + 8.0 / inv_bw);
    double ref[2] = {0.25, 0.5};
    tables[0]->kde_cdfpdf_approx(samples.data(), n, x, inv_bw, ref);
    double cdf = 0.25;
    double pdf = 0.5;
    for (const double s : samples) {
      const double u = (x - s) * inv_bw;
      cdf += 0.5 * (1.0 + std::erf(u * kInvSqrt2));
      pdf += std::exp(-0.5 * u * u);
    }
    const double budget = 1e-14 * static_cast<double>(n + 1);
    EXPECT_NEAR(ref[0], cdf, budget) << "n " << n;
    EXPECT_NEAR(ref[1], pdf, budget) << "n " << n;
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      double out[2] = {0.25, 0.5};
      tables[ti]->kde_cdfpdf_approx(samples.data(), n, x, inv_bw, out);
      expect_bits_eq(out[0], ref[0], "cdfpdf_approx cdf", n);
      expect_bits_eq(out[1], ref[1], "cdfpdf_approx pdf", n);
    }
  }
}

TEST(SimdKernels, PhiApproxStaysWithinTheCertifiedBound) {
  // The KDE percentile certifies its root from kde_cdfpdf_approx alone,
  // trusting each term to within kPhiApproxMaxError of the normal CDF.
  // Check that constant on a dense grid over the pruning window against
  // a long double erfc, in every table: four equal samples put the same
  // term in all four partial sums, so sums[0] / 4 is one term exactly.
  const double step = 0x1p-17;  // ~7.6e-6
  const long double inv_sqrt2 = 1.0L / std::sqrt(2.0L);
  const double zeros[4] = {0.0, 0.0, 0.0, 0.0};
  for (const KernelTable* table : available_tables()) {
    long double worst = 0.0L;
    double worst_u = 0.0;
    for (double u = -8.06; u <= 8.06; u += step) {
      double sums[2] = {0.0, 0.0};
      table->kde_cdfpdf_approx(zeros, 4, u, 1.0, sums);
      const long double phi = 0.5L * std::erfc(-u * inv_sqrt2);
      const long double err = std::fabs(sums[0] / 4.0 - phi);
      if (err > worst) {
        worst = err;
        worst_u = u;
      }
    }
    EXPECT_LT(worst, kPhiApproxMaxError)
        << "table " << static_cast<int>(table->isa) << " at u = " << worst_u;
    // A grid that never came near the bound would not test it.
    EXPECT_GT(worst, 0.5 * kPhiApproxMaxError);
  }
}

TEST(SimdKernels, ColsortSortsEveryColumnLikeScalar) {
  const auto tables = available_tables();
  Rng rng(808);
  for (std::size_t rows : {1u, 2u, 3u, 8u, 23u}) {
    for (std::size_t n : kLengths) {
      const std::size_t stride = n + 2;  // columns past n stay untouched
      std::vector<double> data(rows * stride);
      for (double& v : data) v = std::round(rng.normal(-60.0, 3.0));
      std::vector<double> ref = data;
      tables[0]->colsort(ref.data(), rows, stride, n);
      for (std::size_t c = 0; c < stride; ++c) {
        std::vector<double> want(rows);
        std::vector<double> got(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          want[r] = data[r * stride + c];
          got[r] = ref[r * stride + c];
        }
        if (c < n) std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "rows " << rows << " column " << c;
      }
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> out = data;
        tables[ti]->colsort(out.data(), rows, stride, n);
        for (std::size_t i = 0; i < out.size(); ++i) {
          expect_bits_eq(out[i], ref[i], isa_name(tables[ti]->isa), i);
        }
      }
    }
  }
}

TEST(SimdKernels, ColentropyMatchesSortedValueEntropy) {
  const auto tables = available_tables();
  Rng rng(818);
  for (std::size_t rows : {1u, 2u, 3u, 8u, 23u}) {
    std::vector<double> plogp(rows + 1);
    stats::plogp_table(rows, plogp);
    for (std::size_t n : kLengths) {
      const std::size_t stride = n + 2;
      std::vector<double> data(rows * stride);
      // Few distinct values, so runs of every length occur.
      for (double& v : data) v = std::round(rng.normal(-60.0, 1.5));
      tables[0]->colsort(data.data(), rows, stride, stride);
      std::vector<double> ref(n, 9.0);
      tables[0]->colentropy(data.data(), rows, stride, plogp.data(),
                            ref.data(), n);
      std::vector<double> column(rows);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
          column[r] = data[r * stride + c];
        }
        expect_bits_eq(ref[c], stats::sorted_value_entropy(column, plogp),
                       "colentropy vs sorted_value_entropy", c);
      }
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> out(n, 9.0);
        tables[ti]->colentropy(data.data(), rows, stride, plogp.data(),
                               out.data(), n);
        for (std::size_t c = 0; c < n; ++c) {
          expect_bits_eq(out[c], ref[c], isa_name(tables[ti]->isa), c);
        }
      }
    }
  }
}

#if defined(__x86_64__)
// A wide kernel that returns with the upper halves of the ymm registers
// in use makes every later SSE instruction pay a transition penalty; on
// some hosts libm's erf then runs ~20x slower, which is how a missing
// vzeroupper once doubled the profile refit.  XGETBV(1) reports the
// state directly: bit 2 set means the upper halves are still live.
bool upper_state_in_use() {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4u) != 0;
}

TEST(SimdKernels, Avx2KernelsReturnWithTheUpperStateClear) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(0xd, 1, &a, &b, &c, &d) || (a & 4u) == 0) {
    GTEST_SKIP() << "XGETBV with ECX=1 not supported";
  }
  const KernelTable& t = kernel_table(Isa::kAvx2);
  if (t.isa != Isa::kAvx2) GTEST_SKIP() << "no AVX2 table on this host";
  Rng rng(909);
  constexpr std::size_t kN = 7;  // main loop and scalar tail
  std::vector<double> v = random_vec(rng, 64, 0.5, 1.5);
  std::vector<double> w = random_vec(rng, 64, 0.5, 1.5);
  std::vector<double> m = random_vec(rng, 64, 0.5, 1.5);
  std::vector<double> q = random_vec(rng, 64, 0.5, 1.5);
  std::vector<double> out(64, 0.0);
  const std::vector<double> g = random_vec(rng, 64, 0.0, 4.0);
  const ShadowGeomView geom{g.data(), g.data() + 8, g.data() + 16,
                            g.data() + 24, g.data() + 32, g.data() + 40,
                            g.data() + 48, g.data() + 56};
  ShadowParams params;
  params.motion_coeff = 1.0;
  params.ambient_coeff = 1.0;
  double sums[2] = {0.0, 0.0};
  struct Call {
    const char* name;
    bool dirty;
  };
  std::vector<Call> calls;
  const auto check = [&](const char* name) {
    calls.push_back({name, upper_state_in_use()});
  };
  t.exp_block(v.data(), out.data(), kN);
  check("exp_block");
  t.kde_expsum_block(v.data(), kN, w.data(), kN, 1.5, out.data());
  check("kde_expsum_block");
  t.kde_erfsum_block(v.data(), kN, w.data(), kN, 1.5, out.data());
  check("kde_erfsum_block");
  t.kde_cdfpdf_approx(v.data(), kN, 1.0, 1.5, sums);
  check("kde_cdfpdf_approx");
  t.dot_block(v.data(), 3, w.data(), kN, kN, out.data());
  check("dot_block");
  t.sqdist_block(v.data(), 3, w.data(), kN, kN, out.data());
  check("sqdist_block");
  t.rbf_accum_block(v.data(), kN, 0.5, 0.3, out.data());
  check("rbf_accum_block");
  t.welford_push_full(v.data(), w.data(), m.data(), q.data(), 8.0, kN);
  check("welford_push_full");
  t.welford_push_grow(v.data(), w.data(), m.data(), q.data(), 8.0, kN);
  check("welford_push_grow");
  t.stddev_from_m2(q.data(), 8.0, out.data(), kN);
  check("stddev_from_m2");
  t.colsum(v.data(), 3, kN, out.data(), kN);
  check("colsum");
  t.coldev2(v.data(), 3, kN, m.data(), out.data(), kN);
  check("coldev2");
  t.collagprod(v.data(), 3, 1, kN, m.data(), out.data(), kN);
  check("collagprod");
  t.colsort(v.data(), 3, kN, kN);
  check("colsort");
  // Nine columns: one four-wide pair of vectors and a scalar column.
  const double plogp[4] = {0.0, -0.4, -0.3, 0.0};
  t.colsort(v.data(), 3, 9, 9);
  t.colentropy(v.data(), 3, 9, plogp, out.data(), 9);
  check("colentropy");
  t.shadow_body_pass(geom, kN, params, out.data(), w.data());
  check("shadow_body_pass");
  for (const Call& call : calls) {
    EXPECT_FALSE(call.dirty) << call.name << " left the upper state in use";
  }
}
#endif

TEST(SimdDispatch, ActiveTableIsBestSupportedByDefault) {
  // This binary never sets FADEWICH_SIMD, so the active table must be
  // the widest one the build and host provide (the forced-scalar knob is
  // covered by simd_dispatch_test, a separate binary that sets the env
  // var before the one-time resolution).
  if (std::getenv("FADEWICH_SIMD") != nullptr) {
    GTEST_SKIP() << "FADEWICH_SIMD set in the environment";
  }
  EXPECT_EQ(active_isa(), best_supported_isa());
  EXPECT_EQ(active_kernels().isa, active_isa());
}

}  // namespace
}  // namespace fadewich::simd
