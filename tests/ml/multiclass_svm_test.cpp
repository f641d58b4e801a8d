#include "fadewich/ml/multiclass_svm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::ml {
namespace {

Dataset gaussian_classes(const std::vector<std::pair<double, double>>& means,
                         int per_class, double sigma, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t c = 0; c < means.size(); ++c) {
    for (int i = 0; i < per_class; ++i) {
      data.add({rng.normal(means[c].first, sigma),
                rng.normal(means[c].second, sigma)},
               static_cast<int>(c));
    }
  }
  return data;
}

TEST(MulticlassSvmTest, PredictBeforeTrainingThrows) {
  MulticlassSvm svm;
  EXPECT_THROW(svm.predict({0.0, 0.0}), ContractViolation);
}

TEST(MulticlassSvmTest, TrainRejectsEmptyDataset) {
  MulticlassSvm svm;
  EXPECT_THROW(svm.train(Dataset{}), ContractViolation);
}

TEST(MulticlassSvmTest, SingleClassAlwaysPredictsThatClass) {
  Dataset data;
  data.add({1.0}, 3);
  data.add({2.0}, 3);
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_EQ(svm.predict({100.0}), 3);
  EXPECT_EQ(svm.predict({-100.0}), 3);
}

TEST(MulticlassSvmTest, SeparatesFourWellSeparatedClasses) {
  const Dataset data = gaussian_classes(
      {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}}, 40, 1.0, 5);
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_GE(svm.accuracy(data), 0.98);
}

TEST(MulticlassSvmTest, GeneralizesAcrossDraws) {
  const Dataset train = gaussian_classes(
      {{0.0, 0.0}, {8.0, 0.0}, {4.0, 7.0}}, 50, 1.2, 7);
  const Dataset test = gaussian_classes(
      {{0.0, 0.0}, {8.0, 0.0}, {4.0, 7.0}}, 30, 1.2, 8);
  MulticlassSvm svm;
  svm.train(train);
  EXPECT_GE(svm.accuracy(test), 0.95);
}

TEST(MulticlassSvmTest, HandlesNonContiguousLabels) {
  Dataset data;
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    data.add({rng.normal(-5.0, 1.0)}, 2);
    data.add({rng.normal(5.0, 1.0)}, 9);
  }
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_EQ(svm.predict({-6.0}), 2);
  EXPECT_EQ(svm.predict({6.0}), 9);
  ASSERT_EQ(svm.classes().size(), 2u);
  EXPECT_EQ(svm.classes()[0], 2);
  EXPECT_EQ(svm.classes()[1], 9);
}

TEST(MulticlassSvmTest, ScalesFeaturesInternally) {
  // One feature has a huge scale; without standardisation the small
  // informative feature would be ignored.
  Rng rng(11);
  Dataset data;
  for (int i = 0; i < 60; ++i) {
    const double noise = rng.normal(0.0, 1.0) * 1e6;
    data.add({noise, rng.normal(-1.0, 0.2)}, 0);
    data.add({rng.normal(0.0, 1.0) * 1e6, rng.normal(1.0, 0.2)}, 1);
    (void)noise;
  }
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_GE(svm.accuracy(data), 0.95);
}

TEST(MulticlassSvmTest, AccuracyRequiresNonEmptyTestSet) {
  Dataset data;
  data.add({0.0}, 0);
  data.add({1.0}, 1);
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_THROW(svm.accuracy(Dataset{}), ContractViolation);
}

TEST(MulticlassSvmTest, AccuracyCountsExactMatches) {
  Dataset data = gaussian_classes({{-5.0, 0.0}, {5.0, 0.0}}, 30, 0.5, 13);
  MulticlassSvm svm;
  svm.train(data);
  Dataset shifted;
  shifted.add({-5.0, 0.0}, 0);
  shifted.add({5.0, 0.0}, 0);  // deliberately wrong label
  EXPECT_NEAR(svm.accuracy(shifted), 0.5, 1e-12);
}

TEST(MulticlassSvmTest, ExportImportRoundTripsPredictions) {
  const Dataset data = gaussian_classes(
      {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, 40, 1.0, 19);
  MulticlassSvm trained;
  trained.train(data);

  MulticlassSvm restored;
  restored.import_state(trained.export_state());
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.classes(), trained.classes());
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{rng.normal(5.0, 6.0), rng.normal(5.0, 6.0)};
    EXPECT_EQ(restored.predict(x), trained.predict(x));
  }
}

TEST(MulticlassSvmTest, ExportRequiresTraining) {
  MulticlassSvm svm;
  EXPECT_THROW(svm.export_state(), ContractViolation);
}

TEST(MulticlassSvmTest, ImportRejectsInconsistentState) {
  const Dataset data =
      gaussian_classes({{-5.0, 0.0}, {5.0, 0.0}}, 30, 0.5, 23);
  MulticlassSvm trained;
  trained.train(data);
  const MulticlassSvmState good = trained.export_state();

  // Persisted state is runtime data: inconsistencies throw Error.
  MulticlassSvmState bad = good;
  bad.classes.clear();
  EXPECT_THROW(MulticlassSvm{}.import_state(bad), Error);

  bad = good;
  bad.machines.clear();  // k*(k-1)/2 machines expected
  EXPECT_THROW(MulticlassSvm{}.import_state(bad), Error);

  bad = good;
  bad.machines[0].second_class = 42;  // unknown class
  EXPECT_THROW(MulticlassSvm{}.import_state(bad), Error);

  bad = good;
  bad.scaler_scales.pop_back();  // means/scales length mismatch
  EXPECT_THROW(MulticlassSvm{}.import_state(bad), Error);

  bad = good;
  bad.machines[0].svm.support_alpha_y.pop_back();
  EXPECT_THROW(MulticlassSvm{}.import_state(bad), Error);
}

TEST(MulticlassSvmTest, PredictBlockMatchesScalarPredict) {
  const Dataset data = gaussian_classes(
      {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}}, 35, 1.5, 25);
  MulticlassSvm svm;
  svm.train(data);

  Rng rng(26);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 101; ++i) {  // odd count: straddles the query block
    queries.push_back({rng.uniform(-3.0, 13.0), rng.uniform(-3.0, 13.0)});
  }
  std::vector<int> block(queries.size());
  svm.predict_block(queries, block);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(block[i], svm.predict(queries[i])) << "i=" << i;
  }
}

TEST(MulticlassSvmTest, PredictBlockPackedOverloadMatchesRagged) {
  const Dataset data =
      gaussian_classes({{-6.0, 0.0}, {6.0, 0.0}, {0.0, 8.0}}, 30, 1.0, 27);
  MulticlassSvm svm;
  svm.train(data);

  Rng rng(28);
  const std::size_t count = 48;
  std::vector<std::vector<double>> ragged;
  std::vector<double> packed;
  for (std::size_t i = 0; i < count; ++i) {
    const double a = rng.uniform(-8.0, 8.0);
    const double b = rng.uniform(-2.0, 10.0);
    ragged.push_back({a, b});
    packed.push_back(a);
    packed.push_back(b);
  }
  std::vector<int> via_ragged(count);
  std::vector<int> via_packed(count);
  svm.predict_block(ragged, via_ragged);
  svm.predict_block(packed, count, via_packed);
  EXPECT_EQ(via_ragged, via_packed);
}

TEST(MulticlassSvmTest, PredictBlockSingleClassAndContractChecks) {
  Dataset single;
  single.add({1.0}, 7);
  single.add({2.0}, 7);
  MulticlassSvm svm;
  svm.train(single);
  std::vector<int> out(3);
  svm.predict_block({{0.0}, {50.0}, {-50.0}}, out);
  EXPECT_EQ(out, (std::vector<int>{7, 7, 7}));

  MulticlassSvm untrained;
  EXPECT_THROW(untrained.predict_block({{1.0}}, std::span<int>(out.data(), 1)),
               ContractViolation);
  std::vector<int> short_out(1);
  EXPECT_THROW(svm.predict_block({{1.0}, {2.0}}, short_out),
               ContractViolation);
}

// Class-count sweep: one-vs-one voting stays consistent as classes grow.
class MulticlassSize : public ::testing::TestWithParam<int> {};

TEST_P(MulticlassSize, TrainsAndPredictsAllClasses) {
  const int k = GetParam();
  std::vector<std::pair<double, double>> means;
  for (int c = 0; c < k; ++c) {
    means.push_back({std::cos(2.0 * M_PI * c / k) * 12.0,
                     std::sin(2.0 * M_PI * c / k) * 12.0});
  }
  const Dataset data = gaussian_classes(means, 25, 1.0, 17);
  MulticlassSvm svm;
  svm.train(data);
  EXPECT_GE(svm.accuracy(data), 0.95);
  for (int c = 0; c < k; ++c) {
    EXPECT_EQ(svm.predict({means[c].first, means[c].second}), c);
  }
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, MulticlassSize,
                         ::testing::Values(2, 3, 4, 6));

}  // namespace
}  // namespace fadewich::ml
