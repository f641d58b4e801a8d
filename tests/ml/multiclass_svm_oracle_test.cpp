// Differential test of the shared support-vector pool: MulticlassSvm's
// labels, per-class votes and margins must equal, bit for bit, the
// machine-major one-vs-one tally in tests/oracle/multiclass_svm.cpp (one
// BinarySvm per pairwise machine), for linear and RBF kernels over 2-5
// classes, with rows shared across machines and rows of equal content.
// Run it plain and with FADEWICH_SIMD=off to cover both kernel tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "oracle/multiclass_svm.hpp"

namespace fadewich::ml {
namespace {

struct SvmOracleCase {
  KernelType kernel;
  int classes;
  int per_class;
  int duplicates;  // exact copies of earlier rows, some relabelled
  std::uint64_t seed;
  const char* name;
};

constexpr std::size_t kDim = 6;

SvmConfig config_of(const SvmOracleCase& c) {
  SvmConfig config;
  config.kernel = c.kernel;
  config.rbf_gamma = 0.25;
  return config;
}

// Overlapping Gaussian classes (many support vectors, most of them in
// several machines), then `duplicates` rows copied byte for byte from
// earlier ones: even-numbered copies keep their label, odd ones move to
// the next class, so one pool row can carry two weights in one machine.
Dataset overlapping_classes(const SvmOracleCase& c) {
  Rng rng(c.seed);
  Dataset data;
  for (int label = 0; label < c.classes; ++label) {
    for (int i = 0; i < c.per_class; ++i) {
      std::vector<double> x(kDim);
      for (std::size_t d = 0; d < kDim; ++d) {
        x[d] = rng.normal(d % 2 == 0 ? 1.5 * label : -0.7 * label, 1.4);
      }
      data.add(std::move(x), label);
    }
  }
  for (int i = 0; i < c.duplicates; ++i) {
    const auto src = static_cast<std::size_t>(7 * i + 3) % data.size();
    const std::vector<double> x = data.features[src];
    const int label = i % 2 == 0 ? data.labels[src]
                                 : (data.labels[src] + 1) % c.classes;
    data.add(x, label);
  }
  return data;
}

std::vector<double> queries_for(const Dataset& data, std::uint64_t seed) {
  Rng rng(seed ^ 0x51u);
  std::vector<double> xs;
  // Every training row (distance 0 to a support vector), then draws.
  for (const auto& row : data.features) {
    xs.insert(xs.end(), row.begin(), row.end());
  }
  for (int i = 0; i < 300; ++i) {
    for (std::size_t d = 0; d < kDim; ++d) {
      xs.push_back(rng.normal(1.0, 3.0));
    }
  }
  return xs;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class MulticlassSvmOracle : public ::testing::TestWithParam<SvmOracleCase> {
};

TEST_P(MulticlassSvmOracle, LabelsVotesAndMarginsMatchTheMachineMajorTally) {
  const SvmOracleCase& c = GetParam();
  const Dataset data = overlapping_classes(c);
  MulticlassSvm svm(config_of(c));
  svm.train(data);
  const oracle::MachineMajorSvm reference(svm.export_state(), config_of(c));

  const std::vector<double> xs = queries_for(data, c.seed);
  const std::size_t count = xs.size() / kDim;
  const std::size_t k = svm.classes().size();
  ASSERT_EQ(k, static_cast<std::size_t>(c.classes));
  std::vector<int> votes(count * k);
  std::vector<double> margins(count * k);
  std::vector<int> want_votes(count * k);
  std::vector<double> want_margins(count * k);
  svm.tally_block(xs, count, votes, margins);
  reference.tally(xs, count, want_votes, want_margins);
  EXPECT_EQ(votes, want_votes) << c.name;
  EXPECT_TRUE(same_bits(margins, want_margins)) << c.name;

  std::vector<int> labels(count);
  std::vector<int> want_labels(count);
  svm.predict_block(xs, count, labels);
  reference.predict(xs, count, want_labels);
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < count; ++r) {
    mismatches += labels[r] != want_labels[r] ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u) << c.name << " over " << count << " queries";
  // The single-query path is the same core.
  for (std::size_t r = 0; r < count; r += 37) {
    const auto row = xs.begin() + static_cast<std::ptrdiff_t>(r * kDim);
    const std::vector<double> x(row, row + kDim);
    EXPECT_EQ(svm.predict(x), want_labels[r]) << c.name << " row " << r;
  }
}

TEST_P(MulticlassSvmOracle, SharedRowsAreStoredOnce) {
  const SvmOracleCase& c = GetParam();
  MulticlassSvm svm(config_of(c));
  svm.train(overlapping_classes(c));
  const MulticlassSvmState state = svm.export_state();
  std::vector<std::vector<double>> distinct;
  std::size_t terms = 0;
  for (const auto& machine : state.machines) {
    for (const auto& row : machine.svm.support_x) {
      ++terms;
      bool seen = false;
      for (const auto& d : distinct) seen = seen || same_bits(d, row);
      if (!seen) distinct.push_back(row);
    }
  }
  EXPECT_EQ(svm.pool_size(), distinct.size()) << c.name;
  if (c.classes >= 3 || c.duplicates > 0) {
    EXPECT_LT(svm.pool_size(), terms) << c.name;
  }
}

TEST_P(MulticlassSvmOracle, ImportThenExportReturnsTheStateByteForByte) {
  const SvmOracleCase& c = GetParam();
  MulticlassSvm trained(config_of(c));
  trained.train(overlapping_classes(c));
  const MulticlassSvmState in = trained.export_state();
  MulticlassSvm restored(config_of(c));
  restored.import_state(in);
  const MulticlassSvmState out = restored.export_state();

  EXPECT_EQ(out.classes, in.classes);
  EXPECT_TRUE(same_bits(out.scaler_means, in.scaler_means));
  EXPECT_TRUE(same_bits(out.scaler_scales, in.scaler_scales));
  ASSERT_EQ(out.machines.size(), in.machines.size());
  for (std::size_t m = 0; m < in.machines.size(); ++m) {
    const auto& a = out.machines[m];
    const auto& b = in.machines[m];
    EXPECT_EQ(a.first_class, b.first_class);
    EXPECT_EQ(a.second_class, b.second_class);
    EXPECT_TRUE(same_bits({&a.svm.bias, 1}, {&b.svm.bias, 1}));
    EXPECT_TRUE(same_bits(a.svm.support_alpha_y, b.svm.support_alpha_y));
    ASSERT_EQ(a.svm.support_x.size(), b.svm.support_x.size());
    for (std::size_t i = 0; i < b.svm.support_x.size(); ++i) {
      EXPECT_TRUE(same_bits(a.svm.support_x[i], b.svm.support_x[i]))
          << c.name << " machine " << m << " row " << i;
    }
  }
  EXPECT_EQ(restored.pool_size(), trained.pool_size());
}

std::string case_name(const ::testing::TestParamInfo<SvmOracleCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MulticlassSvmOracle,
    ::testing::Values(
        SvmOracleCase{KernelType::kLinear, 2, 30, 0, 101, "LinearTwo"},
        SvmOracleCase{KernelType::kLinear, 3, 25, 4, 102, "LinearThreeDup"},
        SvmOracleCase{KernelType::kLinear, 4, 12, 6, 103, "LinearFourDup"},
        SvmOracleCase{KernelType::kLinear, 5, 16, 0, 104, "LinearFive"},
        SvmOracleCase{KernelType::kRbf, 2, 30, 3, 105, "RbfTwoDup"},
        SvmOracleCase{KernelType::kRbf, 3, 25, 0, 106, "RbfThree"},
        SvmOracleCase{KernelType::kRbf, 4, 12, 0, 107, "RbfFour"},
        SvmOracleCase{KernelType::kRbf, 5, 16, 8, 108, "RbfFiveDup"}),
    case_name);

}  // namespace
}  // namespace fadewich::ml
