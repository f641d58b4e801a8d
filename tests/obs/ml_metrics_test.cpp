// Telemetry recorded by the ML layer.  These assertions read only
// metrics, which a -DFADEWICH_OBS=OFF build removes, so they live with
// the obs suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::ml {
namespace {

TEST(MulticlassSvmTest, PredictBlockRecordsBatchMetrics) {
  Rng rng(29);
  Dataset data;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 25; ++i) {
      data.add({rng.normal(c == 0 ? -5.0 : 5.0, 0.8), rng.normal(0.0, 0.8)},
               c);
    }
  }
  MulticlassSvm svm;
  svm.train(data);

  const auto before = obs::registry().snapshot();
  const auto* hist_before = before.find_histogram("fadewich_ml_decision_batch");
  const std::uint64_t count_before = hist_before ? hist_before->count : 0;
  const double sum_before = hist_before ? hist_before->sum : 0.0;

  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back({rng.uniform(-7.0, 7.0), rng.uniform(-2.0, 2.0)});
  }
  std::vector<int> out(queries.size());
  svm.predict_block(queries, out);

  const auto after = obs::registry().snapshot();
  const auto* hist = after.find_histogram("fadewich_ml_decision_batch");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, count_before + 1);  // one batched call
  EXPECT_NEAR(hist->sum - sum_before, 64.0, 1e-12);  // of 64 queries

  const auto* gauge = after.find_gauge("fadewich_scratch_arena_bytes");
  ASSERT_NE(gauge, nullptr);
  // predict_block drew its scratch from this thread's arena, so the
  // process-wide reservation gauge must be live and non-zero.
  EXPECT_GT(gauge->value, 0.0);
  EXPECT_EQ(gauge->value,
            static_cast<double>(
                common::ScratchArena::process_bytes_reserved()));
}

}  // namespace
}  // namespace fadewich::ml
