// Histograms: shard merge correctness under concurrent writers,
// fetch-or-create family identity, percentile interpolation, reset
// semantics, and the single-writer HistogramSample an instance owns.
#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/metrics.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  MetricsRegistry registry_;
};

TEST_F(ObsMetricsTest, HistogramMergesCountAndSumAcrossThreads) {
  Histogram histogram =
      registry_.histogram("t_hist_seconds", "", {1.0, 2.0, 4.0});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&histogram] {
      for (int n = 0; n < kPerThread; ++n) histogram.observe(1.5);
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("t_hist_seconds");
  ASSERT_NE(sample, nullptr);
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(sample->count, total);
  EXPECT_NEAR(sample->sum, 1.5 * static_cast<double>(total), 1e-6);
  // Every observation lands in the (1, 2] bucket regardless of shard.
  ASSERT_EQ(sample->counts.size(), 4u);  // 3 bounds + the +inf bucket
  EXPECT_EQ(sample->counts[1], total);
}

TEST_F(ObsMetricsTest, SameNameReturnsSameFamily) {
  Histogram a = registry_.histogram("t_shared_seconds");
  Histogram b = registry_.histogram("t_shared_seconds");
  a.observe(0.1);
  b.observe(0.2);
  EXPECT_EQ(registry_.snapshot().find_histogram("t_shared_seconds")->count,
            2u);
  EXPECT_EQ(registry_.family_count(), 1u);
}

TEST_F(ObsMetricsTest, NonIncreasingBoundsThrow) {
  EXPECT_THROW(registry_.histogram("t_bad", "", {1.0, 1.0}), Error);
  EXPECT_THROW(registry_.histogram("t_bad2", "", {2.0, 1.0}), Error);
}

TEST_F(ObsMetricsTest, PercentileInterpolatesWithinBucket) {
  Histogram histogram =
      registry_.histogram("t_pct_seconds", "", {10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) histogram.observe(15.0);

  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* s = snapshot.find_histogram("t_pct_seconds");
  ASSERT_NE(s, nullptr);
  // All mass in the (10, 20] bucket: quantiles interpolate linearly
  // between the bucket's bounds.
  EXPECT_NEAR(s->percentile(0.50), 15.0, 1e-9);
  EXPECT_NEAR(s->percentile(0.95), 19.5, 1e-9);
  EXPECT_NEAR(s->percentile(0.99), 19.9, 1e-9);
}

TEST_F(ObsMetricsTest, PercentileSpansBucketsAndClampsAtInf) {
  Histogram histogram =
      registry_.histogram("t_pct2_seconds", "", {10.0, 20.0, 40.0});
  for (int i = 0; i < 50; ++i) histogram.observe(5.0);   // bucket 0
  for (int i = 0; i < 50; ++i) histogram.observe(15.0);  // bucket 1

  const MetricsSnapshot first = registry_.snapshot();
  const HistogramSample* s = first.find_histogram("t_pct2_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_NEAR(s->percentile(0.75), 15.0, 1e-9);
  EXPECT_NEAR(s->percentile(0.99), 19.8, 1e-9);
  EXPECT_NEAR(s->mean(), 10.0, 1e-9);

  // An observation past the last bound clamps to the last finite bound.
  histogram.observe(1000.0);
  const MetricsSnapshot second = registry_.snapshot();
  EXPECT_NEAR(second.find_histogram("t_pct2_seconds")->percentile(1.0),
              40.0, 1e-9);
}

TEST_F(ObsMetricsTest, EmptyHistogramPercentileIsZero) {
  registry_.histogram("t_empty_seconds");
  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* s = snapshot.find_histogram("t_empty_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->percentile(0.5), 0.0);
  EXPECT_EQ(s->mean(), 0.0);
}

TEST_F(ObsMetricsTest, ResetZeroesValuesButKeepsFamiliesAndHandles) {
  Histogram first = registry_.histogram("t_reset_seconds");
  Histogram second = registry_.histogram("t_reset2_seconds");
  first.observe(0.01);
  second.observe(0.5);
  ASSERT_EQ(registry_.family_count(), 2u);

  registry_.reset();
  MetricsSnapshot snapshot = registry_.snapshot();
  EXPECT_EQ(snapshot.find_histogram("t_reset_seconds")->count, 0u);
  EXPECT_EQ(snapshot.find_histogram("t_reset2_seconds")->sum, 0.0);
  EXPECT_EQ(registry_.family_count(), 2u);

  // Handles issued before the reset still write to the live families.
  first.observe(0.02);
  snapshot = registry_.snapshot();
  EXPECT_EQ(snapshot.find_histogram("t_reset_seconds")->count, 1u);
  EXPECT_EQ(snapshot.find_histogram("t_reset2_seconds")->count, 0u);
}

TEST_F(ObsMetricsTest, RuntimeToggleSuppressesUpdates) {
  Histogram histogram = registry_.histogram("t_toggle_seconds");
  histogram.observe(0.1);
  set_enabled(false);
  for (int i = 0; i < 100; ++i) histogram.observe(0.1);
  set_enabled(true);
  histogram.observe(0.1);
  EXPECT_EQ(registry_.snapshot().find_histogram("t_toggle_seconds")->count,
            2u);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedByName) {
  registry_.histogram("t_b_seconds");
  registry_.histogram("t_a_seconds");
  registry_.histogram("t_c_seconds");
  const MetricsSnapshot snapshot = registry_.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 3u);
  EXPECT_EQ(snapshot.histograms[0].name, "t_a_seconds");
  EXPECT_EQ(snapshot.histograms[1].name, "t_b_seconds");
  EXPECT_EQ(snapshot.histograms[2].name, "t_c_seconds");
}

TEST_F(ObsMetricsTest, DefaultBucketBoundsAreStrictlyIncreasing) {
  const std::span<const double> bounds = default_bucket_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  // One static table: every default-bounded histogram views it.
  EXPECT_EQ(default_bucket_bounds().data(), bounds.data());
  registry_.histogram("t_default_seconds");
  EXPECT_EQ(registry_.snapshot().histograms[0].bounds.data(), bounds.data());
}

TEST_F(ObsMetricsTest, LiveSampleCountsWithoutARegistry) {
  HistogramSample live(default_bucket_bounds());
  EXPECT_EQ(live.bounds.data(), default_bucket_bounds().data());
  ASSERT_EQ(live.counts.size(), default_bucket_bounds().size() + 1);
  live.observe(2e-6);   // (1e-6, 2.5e-6]
  live.observe(1e-6);   // exactly the first bound: bucket 0
  live.observe(100.0);  // past 10 s: the +inf bucket
  EXPECT_EQ(live.count, 3u);
  EXPECT_DOUBLE_EQ(live.sum, 100.0 + 3e-6);
  EXPECT_EQ(live.counts[0], 1u);
  EXPECT_EQ(live.counts[1], 1u);
  EXPECT_EQ(live.counts.back(), 1u);
  EXPECT_EQ(live.percentile(1.0), 10.0);

  MetricsSnapshot report;
  report.add_histogram(live, "t_live_seconds", "live help");
  const HistogramSample* named = report.find_histogram("t_live_seconds");
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->help, "live help");
  EXPECT_EQ(named->counts, live.counts);
  EXPECT_TRUE(live.name.empty());  // the live value stays unnamed
}

}  // namespace
}  // namespace fadewich::obs
