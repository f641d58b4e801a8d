#include "fadewich/ml/svm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::ml {
namespace {

struct Blob {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
};

Blob two_gaussian_blobs(double separation, int per_class,
                        std::uint64_t seed) {
  Rng rng(seed);
  Blob blob;
  for (int i = 0; i < per_class; ++i) {
    blob.x.push_back({rng.normal(-separation, 1.0), rng.normal(0.0, 1.0)});
    blob.y.push_back(-1);
    blob.x.push_back({rng.normal(separation, 1.0), rng.normal(0.0, 1.0)});
    blob.y.push_back(1);
  }
  return blob;
}

TEST(BinarySvmTest, RejectsInvalidConfig) {
  SvmConfig bad;
  bad.c = 0.0;
  EXPECT_THROW(BinarySvm{bad}, ContractViolation);
  bad = {};
  bad.rbf_gamma = -1.0;
  EXPECT_THROW(BinarySvm{bad}, ContractViolation);
}

TEST(BinarySvmTest, PredictBeforeTrainingThrows) {
  BinarySvm svm;
  EXPECT_FALSE(svm.trained());
  EXPECT_THROW(svm.predict({1.0}), ContractViolation);
}

TEST(BinarySvmTest, TrainRejectsSingleClass) {
  BinarySvm svm;
  EXPECT_THROW(svm.train({{1.0}, {2.0}}, {1, 1}), ContractViolation);
}

TEST(BinarySvmTest, TrainRejectsBadLabels) {
  BinarySvm svm;
  EXPECT_THROW(svm.train({{1.0}, {2.0}}, {0, 1}), ContractViolation);
}

TEST(BinarySvmTest, TrainRejectsSizeMismatch) {
  BinarySvm svm;
  EXPECT_THROW(svm.train({{1.0}}, {1, -1}), ContractViolation);
}

TEST(BinarySvmTest, SeparatesTrivialOneDimensionalData) {
  BinarySvm svm;
  svm.train({{-2.0}, {-1.0}, {1.0}, {2.0}}, {-1, -1, 1, 1});
  EXPECT_EQ(svm.predict({-3.0}), -1);
  EXPECT_EQ(svm.predict({3.0}), 1);
  EXPECT_GT(svm.decision({5.0}), svm.decision({0.5}));
}

TEST(BinarySvmTest, SeparatesWellSeparatedBlobs) {
  const Blob blob = two_gaussian_blobs(4.0, 50, 7);
  BinarySvm svm;
  svm.train(blob.x, blob.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < blob.x.size(); ++i) {
    if (svm.predict(blob.x[i]) == blob.y[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / blob.x.size(), 0.98);
}

TEST(BinarySvmTest, GeneralizesToHeldOutPoints) {
  const Blob train = two_gaussian_blobs(3.0, 60, 11);
  const Blob test = two_gaussian_blobs(3.0, 40, 12);
  BinarySvm svm;
  svm.train(train.x, train.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.x.size(); ++i) {
    if (svm.predict(test.x[i]) == test.y[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / test.x.size(), 0.95);
}

TEST(BinarySvmTest, RbfKernelSolvesConcentricCircles) {
  // Inner circle -1, outer ring +1: not linearly separable.
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 120; ++i) {
    const double angle = rng.uniform(0.0, 2.0 * M_PI);
    const double r = (i % 2 == 0) ? rng.uniform(0.0, 1.0)
                                  : rng.uniform(2.5, 3.5);
    x.push_back({r * std::cos(angle), r * std::sin(angle)});
    y.push_back(i % 2 == 0 ? -1 : 1);
  }
  SvmConfig config;
  config.kernel = KernelType::kRbf;
  config.rbf_gamma = 0.5;
  config.c = 10.0;
  BinarySvm svm(config);
  svm.train(x, y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (svm.predict(x[i]) == y[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / x.size(), 0.95);

  // A linear machine cannot do this.
  BinarySvm linear;
  linear.train(x, y);
  std::size_t linear_correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (linear.predict(x[i]) == y[i]) ++linear_correct;
  }
  EXPECT_LT(linear_correct, correct);
}

TEST(BinarySvmTest, SupportVectorsAreSubsetOfData) {
  const Blob blob = two_gaussian_blobs(5.0, 40, 17);
  BinarySvm svm;
  svm.train(blob.x, blob.y);
  EXPECT_GT(svm.support_vector_count(), 0u);
  EXPECT_LE(svm.support_vector_count(), blob.x.size());
  // Widely separated blobs need few support vectors.
  EXPECT_LT(svm.support_vector_count(), blob.x.size() / 2);
}

TEST(BinarySvmTest, DeterministicGivenSeed) {
  const Blob blob = two_gaussian_blobs(2.0, 30, 19);
  SvmConfig config;
  config.seed = 5;
  BinarySvm a(config);
  BinarySvm b(config);
  a.train(blob.x, blob.y);
  b.train(blob.x, blob.y);
  for (double v = -4.0; v <= 4.0; v += 0.5) {
    EXPECT_DOUBLE_EQ(a.decision({v, 0.0}), b.decision({v, 0.0}));
  }
}

TEST(BinarySvmTest, ToleratesLabelNoise) {
  Blob blob = two_gaussian_blobs(3.0, 60, 23);
  // Flip a few labels; soft margin should absorb them.
  for (std::size_t i = 0; i < 6; ++i) blob.y[i * 7] = -blob.y[i * 7];
  BinarySvm svm;
  svm.train(blob.x, blob.y);
  const Blob test = two_gaussian_blobs(3.0, 40, 24);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.x.size(); ++i) {
    if (svm.predict(test.x[i]) == test.y[i]) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / test.x.size(), 0.9);
}

TEST(BinarySvmTest, DecisionBlockBitIdenticalToScalarLinear) {
  const Blob blob = two_gaussian_blobs(2.0, 40, 41);
  BinarySvm svm;
  svm.train(blob.x, blob.y);

  Rng rng(42);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 37; ++i) {  // odd count: straddles the query block
    queries.push_back({rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)});
  }
  const common::FlatMatrix xs = common::FlatMatrix::from_rows(queries);
  std::vector<double> block(queries.size());
  svm.decision_block(xs, block);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(block[i], svm.decision(queries[i])) << "i=" << i;
  }
}

TEST(BinarySvmTest, DecisionBlockBitIdenticalToScalarRbf) {
  const Blob blob = two_gaussian_blobs(1.5, 50, 43);
  SvmConfig config;
  config.kernel = KernelType::kRbf;
  config.rbf_gamma = 0.3;
  BinarySvm svm(config);
  svm.train(blob.x, blob.y);

  Rng rng(44);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back({rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)});
  }
  const common::FlatMatrix xs = common::FlatMatrix::from_rows(queries);
  std::vector<double> block(queries.size());
  svm.decision_block(xs, block);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(block[i], svm.decision(queries[i])) << "i=" << i;
  }
}

TEST(BinarySvmTest, PackedSpanOverloadMatchesFlatMatrixOverload) {
  const Blob blob = two_gaussian_blobs(2.5, 30, 47);
  BinarySvm svm;
  svm.train(blob.x, blob.y);

  Rng rng(48);
  const std::size_t count = 23;
  std::vector<double> packed;
  common::FlatMatrix xs(count, 2);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = rng.uniform(-4.0, 4.0);
    const double b = rng.uniform(-4.0, 4.0);
    packed.push_back(a);
    packed.push_back(b);
    xs.at(i, 0) = a;
    xs.at(i, 1) = b;
  }
  std::vector<double> via_matrix(count);
  std::vector<double> via_span(count);
  svm.decision_block(xs, via_matrix);
  svm.decision_block(packed, count, via_span);
  EXPECT_EQ(via_matrix, via_span);
}

TEST(BinarySvmTest, DecisionBlockContractChecks) {
  BinarySvm untrained;
  common::FlatMatrix xs(2, 2);
  std::vector<double> out(2);
  EXPECT_THROW(untrained.decision_block(xs, out), ContractViolation);

  const Blob blob = two_gaussian_blobs(2.0, 20, 49);
  BinarySvm svm;
  svm.train(blob.x, blob.y);
  std::vector<double> short_out(1);
  EXPECT_THROW(svm.decision_block(xs, short_out), ContractViolation);
  common::FlatMatrix wrong_width(2, 5);
  EXPECT_THROW(svm.decision_block(wrong_width, out), ContractViolation);
}

TEST(BinarySvmTest, DecisionBlockSurvivesStatePersistenceRoundTrip) {
  const Blob blob = two_gaussian_blobs(2.0, 35, 53);
  BinarySvm svm;
  svm.train(blob.x, blob.y);

  BinarySvm restored;
  restored.import_state(svm.export_state());

  Rng rng(54);
  common::FlatMatrix xs(16, 2);
  for (std::size_t i = 0; i < 16; ++i) {
    xs.at(i, 0) = rng.uniform(-4.0, 4.0);
    xs.at(i, 1) = rng.uniform(-4.0, 4.0);
  }
  std::vector<double> a(16);
  std::vector<double> b(16);
  svm.decision_block(xs, a);
  restored.decision_block(xs, b);
  EXPECT_EQ(a, b);
}

// Separation sweep: accuracy should grow with class separation.
class SvmSeparation : public ::testing::TestWithParam<double> {};

TEST_P(SvmSeparation, AccuracyAtLeastMajority) {
  const Blob blob = two_gaussian_blobs(GetParam(), 50, 29);
  BinarySvm svm;
  svm.train(blob.x, blob.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < blob.x.size(); ++i) {
    if (svm.predict(blob.x[i]) == blob.y[i]) ++correct;
  }
  const double acc = static_cast<double>(correct) / blob.x.size();
  EXPECT_GE(acc, 0.5);
  if (GetParam() >= 3.0) {
    EXPECT_GE(acc, 0.97);
  }
}

INSTANTIATE_TEST_SUITE_P(Separations, SvmSeparation,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0, 5.0));

}  // namespace
}  // namespace fadewich::ml
