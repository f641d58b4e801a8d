// Differential test: the KDE percentile core (a root located and
// certified by approximate Newton scans, then the bisection replayed
// with far midpoints decided by position) against
// the plain bisection in oracle/kde_percentile.hpp, which decides every
// midpoint with an exact pruned-CDF call.  The results must be equal bit
// for bit, in both settings the library uses: the normal profile's
// (80 steps, 1e-9) bracket at the extremes ± reach, and
// GaussianKde::percentile's extended bracket with (200, 1e-12).  The
// oracle's exact-Newton locator (the library's before its approximate
// pre-pass, the bench baseline for a profile fold) is held to the same.
// A second test pins how many midpoints still take the exact CDF.
//
// Profile families cover the shapes MD's summed-std profile takes and
// the ones that stress the replay: smooth normals across three decades
// of spread, a skewed exponential, integer-rounded values (many exact
// ties), two separated modes (flat CDF plateaus), and all-equal samples
// (floored bandwidth, where the root can land exactly on a midpoint).

#include "fadewich/ml/kde.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "oracle/kde_percentile.hpp"

namespace fadewich::ml {
namespace {

enum class Family { kNormal, kExponential, kInteger, kTwoMode, kConstant };

constexpr double kProbabilities[] = {0.01, 0.5, 0.95, 0.99, 0.999};
constexpr int kProfilesPerFamily = 600;

std::vector<double> make_profile(Family family, Rng& rng) {
  // Log-uniform sizes keep the small profiles (where a single sample
  // moves the quantile most) as common as the full 600-sample ring.
  const auto n = static_cast<std::size_t>(
      std::lround(std::exp(rng.uniform(std::log(10.0), std::log(600.0)))));
  std::vector<double> out(n);
  switch (family) {
    case Family::kNormal: {
      const double mean = rng.uniform(0.0, 100.0);
      const double sigma = std::exp(rng.uniform(std::log(0.01), std::log(10.0)));
      for (auto& v : out) v = rng.normal(mean, sigma);
      break;
    }
    case Family::kExponential: {
      const double rate = std::exp(rng.uniform(std::log(0.1), std::log(10.0)));
      for (auto& v : out) v = rng.exponential(rate);
      break;
    }
    case Family::kInteger: {
      const double mean = rng.uniform(0.0, 40.0);
      const double sigma = rng.uniform(0.3, 4.0);
      for (auto& v : out) v = std::round(rng.normal(mean, sigma));
      break;
    }
    case Family::kTwoMode: {
      const double sigma = rng.uniform(0.05, 2.0);
      const double gap = sigma * rng.uniform(4.0, 60.0);
      const double share = rng.uniform(0.5, 0.99);
      for (auto& v : out) {
        v = rng.normal(rng.uniform() < share ? 10.0 : 10.0 + gap, sigma);
      }
      break;
    }
    case Family::kConstant: {
      const double value = std::round(rng.uniform(0.0, 60.0) * 4.0) / 4.0;
      std::fill(out.begin(), out.end(), value);
      break;
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class KdePercentileOracle : public ::testing::TestWithParam<Family> {};

TEST_P(KdePercentileOracle, MatchesPlainBisectionBitForBit) {
  Rng rng(0x6b646500u + static_cast<std::uint64_t>(GetParam()));
  int cases = 0;
  int mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](const char* setting, std::size_t n, double p,
                         double got, double want) {
    ++cases;
    if (same_bits(got, want)) return;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << std::setprecision(17) << setting << " n=" << n << " p=" << p
         << ": got " << got << ", want " << want;
      first_mismatch = os.str();
    }
  };
  for (int i = 0; i < kProfilesPerFamily; ++i) {
    std::vector<double> sorted = make_profile(GetParam(), rng);
    std::sort(sorted.begin(), sorted.end());
    const double bw = GaussianKde::silverman_bandwidth(sorted);
    const GaussianKde kde(sorted);
    for (double p : kProbabilities) {
      check("profile", sorted.size(), p,
            kde_percentile_sorted(sorted, bw, p, 80, 1e-9),
            oracle::kde_percentile_sorted(sorted, bw, p, 80, 1e-9));
      check("gaussian_kde", sorted.size(), p, kde.percentile(p),
            oracle::gaussian_kde_percentile(sorted, kde.bandwidth(), p));
      check("exact_newton", sorted.size(), p,
            oracle::kde_percentile_exact_newton(sorted, bw, p, 80, 1e-9),
            oracle::kde_percentile_sorted(sorted, bw, p, 80, 1e-9));
    }
  }
  EXPECT_EQ(cases, kProfilesPerFamily * 5 * 3);
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases; first: " << first_mismatch;
}

// Pinned cost of the profile-setting percentile per family (3,000 calls
// each): bisection midpoints decided by the exact CDF, and roots the
// approximate scan could not certify (each such call bisects plainly,
// one exact CDF per midpoint).
struct PinnedCost {
  int exact_cdf_calls;
  int uncertified;
};

PinnedCost pinned_cost(Family family) {
  switch (family) {
    case Family::kNormal: return {28, 0};
    case Family::kExponential: return {107, 0};
    case Family::kInteger: return {73, 0};
    case Family::kTwoMode: return {138, 0};
    // All-equal samples: the root can sit exactly on a midpoint, and
    // every call pays one exact CDF for it.
    case Family::kConstant: return {600, 0};
  }
  return {-1, -1};
}

TEST_P(KdePercentileOracle, ExactCdfCallsArePinned) {
  Rng rng(0x6b646500u + static_cast<std::uint64_t>(GetParam()));
  int calls = 0;
  int exact = 0;
  int uncertified = 0;
  for (int i = 0; i < kProfilesPerFamily; ++i) {
    std::vector<double> sorted = make_profile(GetParam(), rng);
    std::sort(sorted.begin(), sorted.end());
    const double bw = GaussianKde::silverman_bandwidth(sorted);
    for (double p : kProbabilities) {
      const detail::PercentileTrace trace =
          detail::kde_percentile_traced(sorted, bw, p, 80, 1e-9);
      ASSERT_TRUE(same_bits(trace.value,
                            kde_percentile_sorted(sorted, bw, p, 80, 1e-9)));
      ++calls;
      exact += trace.exact_cdf_calls;
      uncertified += trace.certified ? 0 : 1;
    }
  }
  std::cout << calls << " calls: "
            << static_cast<double>(exact) / calls
            << " exact CDF calls per call, " << uncertified
            << " uncertified\n";
  const PinnedCost want = pinned_cost(GetParam());
  EXPECT_EQ(exact, want.exact_cdf_calls);
  EXPECT_EQ(uncertified, want.uncertified);
}

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  switch (info.param) {
    case Family::kNormal: return "Normal";
    case Family::kExponential: return "Exponential";
    case Family::kInteger: return "Integer";
    case Family::kTwoMode: return "TwoMode";
    case Family::kConstant: return "Constant";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Families, KdePercentileOracle,
                         ::testing::Values(Family::kNormal,
                                           Family::kExponential,
                                           Family::kInteger,
                                           Family::kTwoMode,
                                           Family::kConstant),
                         family_name);

}  // namespace
}  // namespace fadewich::ml
