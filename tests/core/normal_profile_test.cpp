#include "fadewich/core/normal_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "oracle/kde_percentile.hpp"

namespace fadewich::core {
namespace {

std::vector<double> normal_samples(std::size_t n, double mean, double sigma,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.normal(mean, sigma));
  return out;
}

TEST(NormalProfileTest, RejectsInvalidConfig) {
  NormalProfileConfig bad;
  bad.capacity = 5;
  EXPECT_THROW(NormalProfile{bad}, ContractViolation);
  bad = {};
  bad.alpha = 0.0;
  EXPECT_THROW(NormalProfile{bad}, ContractViolation);
  bad = {};
  bad.anomalous_fraction = 0.0;
  EXPECT_THROW(NormalProfile{bad}, ContractViolation);
}

TEST(NormalProfileTest, UninitializedProfileRejectsQueries) {
  NormalProfile profile;
  EXPECT_FALSE(profile.initialized());
  EXPECT_THROW(profile.offer(1.0), ContractViolation);
  EXPECT_THROW(profile.pdf(1.0), ContractViolation);
}

TEST(NormalProfileTest, InitializeNeedsEnoughSamples) {
  NormalProfile profile;
  EXPECT_THROW(profile.initialize({1.0, 2.0}), ContractViolation);
}

TEST(NormalProfileTest, ThresholdSitsAboveTheBulk) {
  NormalProfile profile;
  profile.initialize(normal_samples(400, 50.0, 5.0, 3));
  // 99th percentile of N(50, 5) ~ 61.6; KDE smoothing adds a little.
  EXPECT_GT(profile.threshold(), 58.0);
  EXPECT_LT(profile.threshold(), 66.0);
}

TEST(NormalProfileTest, AlphaControlsTheThreshold) {
  NormalProfileConfig strict;
  strict.alpha = 0.5;
  NormalProfileConfig loose;
  loose.alpha = 10.0;
  NormalProfile a{strict};
  NormalProfile b{loose};
  const auto samples = normal_samples(400, 50.0, 5.0, 5);
  a.initialize(samples);
  b.initialize(samples);
  EXPECT_GT(a.threshold(), b.threshold());
}

TEST(NormalProfileTest, CdfMatchesThresholdPercentile) {
  NormalProfile profile;
  profile.initialize(normal_samples(500, 20.0, 2.0, 7));
  EXPECT_NEAR(profile.cdf(profile.threshold()), 0.99, 1e-6);
}

TEST(NormalProfileTest, PdfIsPositiveNearTheData) {
  NormalProfile profile;
  profile.initialize(normal_samples(300, 10.0, 1.0, 9));
  EXPECT_GT(profile.pdf(10.0), 0.1);
  EXPECT_LT(profile.pdf(100.0), 1e-6);
}

TEST(NormalProfileTest, CleanBatchesUpdateTheProfile) {
  NormalProfileConfig config;
  config.batch_size = 50;
  NormalProfile profile{config};
  profile.initialize(normal_samples(200, 50.0, 5.0, 11));
  const double before = profile.threshold();

  // Feed a shifted-but-quiet distribution below the threshold; after
  // enough batches the threshold should track the new level downward.
  Rng rng(13);
  bool updated = false;
  for (int i = 0; i < 600; ++i) {
    updated = profile.offer(rng.normal(30.0, 3.0)) || updated;
  }
  EXPECT_TRUE(updated);
  EXPECT_LT(profile.threshold(), before);
}

TEST(NormalProfileTest, AnomalousBatchesAreDiscarded) {
  NormalProfileConfig config;
  config.batch_size = 50;
  config.anomalous_fraction = 0.05;
  NormalProfile profile{config};
  profile.initialize(normal_samples(400, 50.0, 5.0, 17));
  const double before = profile.threshold();

  // Values far above the threshold: every batch is anomalous, so the
  // profile must not absorb them.
  for (int i = 0; i < 400; ++i) {
    EXPECT_FALSE(profile.offer(200.0));
  }
  EXPECT_DOUBLE_EQ(profile.threshold(), before);
}

TEST(NormalProfileTest, CapacityBoundsTheSampleCount) {
  NormalProfileConfig config;
  config.capacity = 100;
  config.batch_size = 20;
  NormalProfile profile{config};
  profile.initialize(normal_samples(100, 50.0, 5.0, 19));
  Rng rng(21);
  for (int i = 0; i < 500; ++i) profile.offer(rng.normal(50.0, 5.0));
  EXPECT_LE(profile.size(), 100u);
}

TEST(NormalProfileTest, MixedBatchBelowTauIsAbsorbed) {
  // A batch with a small fraction of anomalous values (below tau) is
  // folded in, exactly as Algorithm 1 specifies.
  NormalProfileConfig config;
  config.batch_size = 100;
  config.anomalous_fraction = 0.10;
  NormalProfile profile{config};
  profile.initialize(normal_samples(300, 50.0, 5.0, 23));
  Rng rng(25);
  bool updated = false;
  for (int i = 0; i < 100; ++i) {
    // ~5% of offers are spikes: below the 10% rejection threshold.
    const double v =
        (i % 20 == 0) ? 150.0 : rng.normal(50.0, 5.0);
    updated = profile.offer(v) || updated;
  }
  EXPECT_TRUE(updated);
}

TEST(NormalProfileTest, SelfUpdateOffFreezesTheProfile) {
  NormalProfileConfig config;
  config.batch_size = 20;
  config.self_update = false;
  NormalProfile profile{config};
  profile.initialize(normal_samples(200, 50.0, 5.0, 29));
  const double before = profile.threshold();
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(profile.offer(rng.normal(30.0, 3.0)));
  }
  EXPECT_DOUBLE_EQ(profile.threshold(), before);
  EXPECT_EQ(profile.size(), 200u);
}

TEST(NormalProfileTest, SnapshotReflectsContents) {
  NormalProfile profile;
  profile.initialize(normal_samples(50, 10.0, 1.0, 27));
  EXPECT_EQ(profile.samples_snapshot().size(), 50u);
  EXPECT_EQ(profile.size(), 50u);
}

TEST(NormalProfileTest, BatchExactlyAtTauBoundaryIsAnomalous) {
  NormalProfileConfig config;
  config.batch_size = 100;
  config.anomalous_fraction = 0.05;
  NormalProfile profile{config};
  profile.initialize(normal_samples(300, 50.0, 5.0, 33));
  const double before = profile.threshold();
  // Exactly tau * b = 5 of 100 values at/above the threshold:
  // is_anomalous uses >=, so the boundary batch is rejected.
  for (int i = 0; i < 100; ++i) {
    const double v = (i < 5) ? before + 50.0 : 40.0;
    EXPECT_FALSE(profile.offer(v));
  }
  EXPECT_DOUBLE_EQ(profile.threshold(), before);
  EXPECT_EQ(profile.updates_accepted(), 0u);
  EXPECT_EQ(profile.size(), 300u);
}

TEST(NormalProfileTest, BatchJustBelowTauBoundaryIsAbsorbed) {
  NormalProfileConfig config;
  config.batch_size = 100;
  config.anomalous_fraction = 0.05;
  NormalProfile profile{config};
  profile.initialize(normal_samples(300, 50.0, 5.0, 33));
  // One fewer spike: 4 < tau * b, the batch folds in.
  bool updated = false;
  for (int i = 0; i < 100; ++i) {
    const double v = (i < 4) ? profile.threshold() + 50.0 : 40.0;
    updated = profile.offer(v) || updated;
  }
  EXPECT_TRUE(updated);
  EXPECT_EQ(profile.updates_accepted(), 1u);
}

TEST(NormalProfileTest, DriftGuardRollsBackPoisoningBatches) {
  NormalProfileConfig config;
  config.capacity = 100;
  config.batch_size = 50;
  config.max_drift_fraction = 0.05;
  NormalProfileConfig unguarded_config = config;
  unguarded_config.max_drift_fraction = 0.0;
  NormalProfile guarded{config};
  NormalProfile unguarded{unguarded_config};
  const auto seed_samples = normal_samples(100, 50.0, 5.0, 35);
  guarded.initialize(seed_samples);
  unguarded.initialize(seed_samples);

  // Sub-threshold values that pass the anomalous-fraction test yet walk
  // the threshold down — the slow-poisoning sequence the guard exists
  // for.  Unguarded, the profile follows them all the way.
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.normal(10.0, 1.0);
    guarded.offer(v);
    unguarded.offer(v);
  }
  EXPECT_LT(unguarded.threshold(), 20.0);  // poisoned
  EXPECT_GT(guarded.threshold(), 30.0);    // guard held the line
  EXPECT_GE(guarded.drift_rollbacks(), 1u);
  EXPECT_DOUBLE_EQ(guarded.threshold(), guarded.last_good_threshold());
}

TEST(NormalProfileTest, ReinitializeAfterRollbackResetsTheGuard) {
  NormalProfileConfig config;
  config.capacity = 100;
  config.batch_size = 50;
  config.max_drift_fraction = 0.05;
  NormalProfile profile{config};
  profile.initialize(normal_samples(100, 50.0, 5.0, 39));
  Rng poison(41);
  for (int i = 0; i < 200; ++i) profile.offer(poison.normal(10.0, 1.0));
  ASSERT_GE(profile.drift_rollbacks(), 1u);

  // The environment legitimately changed: re-seeding at the new level
  // clears the guard's anchor and counters, and updates flow again.
  profile.initialize(normal_samples(100, 10.0, 1.0, 43));
  EXPECT_EQ(profile.drift_rollbacks(), 0u);
  EXPECT_EQ(profile.updates_accepted(), 0u);
  EXPECT_LT(profile.threshold(), 15.0);
  Rng rng(45);
  bool updated = false;
  for (int i = 0; i < 50; ++i) {
    updated = profile.offer(rng.normal(10.0, 1.0)) || updated;
  }
  EXPECT_TRUE(updated);
  EXPECT_EQ(profile.drift_rollbacks(), 0u);
}

TEST(NormalProfileTest, RestoreReproducesTheProfileBitExactly) {
  NormalProfile original;
  original.initialize(normal_samples(200, 50.0, 5.0, 47));
  Rng warm(49);
  for (int i = 0; i < 70; ++i) original.offer(warm.normal(50.0, 5.0));
  ASSERT_FALSE(original.queue_snapshot().empty());  // mid-batch state

  NormalProfile restored;
  restored.restore(original.samples_snapshot(), original.queue_snapshot());
  EXPECT_DOUBLE_EQ(restored.threshold(), original.threshold());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.queue_snapshot(), original.queue_snapshot());

  // The pending batch continues where it left off: identical offers make
  // identical decisions and keep the thresholds in lockstep.
  Rng a(51), b(51);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(original.offer(a.normal(50.0, 5.0)),
              restored.offer(b.normal(50.0, 5.0)));
  }
  EXPECT_DOUBLE_EQ(restored.threshold(), original.threshold());
}

TEST(NormalProfileTest, RestoreRejectsTooFewSamples) {
  NormalProfile profile;
  EXPECT_THROW(profile.restore({1.0, 2.0, 3.0}, {}), Error);
}

TEST(NormalProfileTest, RestoredFrozenProfileStaysFrozen) {
  // A state saved by a self-updating deployment restored into a
  // self_update=false configuration: the threshold comes back exactly,
  // but the pending queue never folds in.
  NormalProfile original;
  original.initialize(normal_samples(200, 50.0, 5.0, 53));
  Rng warm(55);
  for (int i = 0; i < 100; ++i) original.offer(warm.normal(50.0, 5.0));

  NormalProfileConfig frozen_config;
  frozen_config.self_update = false;
  NormalProfile frozen{frozen_config};
  frozen.restore(original.samples_snapshot(), original.queue_snapshot());
  EXPECT_DOUBLE_EQ(frozen.threshold(), original.threshold());
  const auto queue_before = frozen.queue_snapshot();
  Rng rng(57);
  for (int i = 0; i < 400; ++i) {
    EXPECT_FALSE(frozen.offer(rng.normal(50.0, 5.0)));
  }
  EXPECT_DOUBLE_EQ(frozen.threshold(), original.threshold());
  EXPECT_EQ(frozen.queue_snapshot(), queue_before);
  EXPECT_EQ(frozen.updates_accepted(), 0u);
}

TEST(NormalProfileTest, EveryFoldMatchesThePlainBisectionBitForBit) {
  // The threshold after each fold, kept or rolled back, must equal the
  // plain-bisection oracle's percentile of the retained samples.
  for (const double drift : {0.0, 0.02}) {
    NormalProfileConfig config;
    config.capacity = 200;
    config.batch_size = 50;
    config.max_drift_fraction = drift;
    NormalProfile profile{config};
    profile.initialize(normal_samples(200, 50.0, 5.0, 59));
    Rng rng(61);
    std::uint64_t folds = 0;
    for (int batch = 0; batch < 1000 && folds < 200; ++batch) {
      // Every fourth batch sits low: it passes the anomalous-fraction
      // test but drags the threshold, which the guard rolls back.
      const double mean = batch % 4 == 3 ? 35.0 : 50.0;
      for (std::size_t i = 0; i < config.batch_size; ++i) {
        profile.offer(rng.normal(mean, 5.0));
      }
      const std::uint64_t now =
          profile.updates_accepted() + profile.drift_rollbacks();
      if (now == folds) continue;  // anomalous batch, discarded
      folds = now;
      std::vector<double> sorted = profile.samples_snapshot();
      std::sort(sorted.begin(), sorted.end());
      const double want = oracle::kde_percentile_sorted(
          sorted, profile.bandwidth(), 1.0 - config.alpha / 100.0, 80, 1e-9);
      const double got = profile.threshold();
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "fold " << folds << " drift " << drift << ": " << got
          << " vs " << want;
    }
    EXPECT_EQ(folds, 200u);
    if (drift > 0.0) {
      EXPECT_GT(profile.drift_rollbacks(), 0u);
    }
    EXPECT_GT(profile.updates_accepted(), 0u);
  }
}

}  // namespace
}  // namespace fadewich::core
