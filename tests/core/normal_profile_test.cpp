#include "fadewich/core/normal_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/ml/kde.hpp"
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

// Differential test of the incremental sorted state: after every batch
// (folded, discarded or rolled back) the profile's sorted samples,
// bandwidth and threshold must equal, bit for bit, a from-scratch sort
// of its ring, Silverman's rule over it and the plain-bisection oracle.
struct RefitScenario {
  std::size_t capacity;
  std::size_t batch;
  std::size_t seed_samples;  // < capacity: the ring starts part-full
  double max_drift_fraction;
  bool integer;  // rounded values: many exact duplicates
  // How a batch's values are drawn; a byte, so it too sits in padding.
  enum class Shape : std::uint8_t {
    kNormal,    // normal(mean, 5)
    kEqual,     // every value of a batch is its mean
    kNegative,  // normal(mean - 100, 5): all values below zero
    // normal(mean, 5), and every 8th batch holds one value at +-1e6: a
    // cluster far narrower than the batch's range, so the bucket pass
    // overfills and falls back (RefitBatchSort covers +-1e300, which
    // would overflow the KDE's variance here).
    kOutlier,
  } shape;
  // Pinned cost of the refits' percentiles (ExactCdfCallsArePinned):
  // midpoints decided by the exact CDF, and roots left uncertified.
  // Narrow so they sit in the padding after `integer`: gtest prints the
  // parameter's size into each test's name, which must stay stable.
  std::int16_t exact_cdf_calls;
  std::int16_t uncertified;
  // Last, because gtest also prints the parameter's bytes into each
  // test's name: a pointer's bytes move with the load address, so at the
  // front they made the leading bytes of the name differ from run to run.
  const char* name;
};
static_assert(sizeof(RefitScenario) == 48);

class IncrementalRefitOracle
    : public ::testing::TestWithParam<RefitScenario> {};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct ScenarioRun {
  int discarded = 0;
  int restores = 0;
  std::unique_ptr<NormalProfile> profile;
};

// Feeds the scenario's 160 batches, restarting mid-sequence from the
// persisted form; `after_batch(profile, batch, refitted)` runs after
// each batch, `refitted` false when the batch was discarded.
template <typename AfterBatch>
ScenarioRun run_scenario(const RefitScenario& sc, AfterBatch after_batch) {
  NormalProfileConfig config;
  config.capacity = sc.capacity;
  config.batch_size = sc.batch;
  config.max_drift_fraction = sc.max_drift_fraction;
  Rng rng(0x72656669u + sc.capacity + sc.batch);
  using Shape = RefitScenario::Shape;
  const auto draw = [&](double mean) {
    if (sc.shape == Shape::kEqual) return mean;
    if (sc.shape == Shape::kNegative) mean -= 100.0;
    const double v = rng.normal(mean, 5.0);
    return sc.integer ? std::round(v) : v;
  };
  std::vector<double> seed(sc.seed_samples);
  for (auto& v : seed) v = draw(50.0);
  ScenarioRun run;
  run.profile = std::make_unique<NormalProfile>(config);
  run.profile->initialize(seed);

  constexpr int kBatches = 160;
  for (int batch = 0; batch < kBatches; ++batch) {
    if (batch == kBatches / 2) {
      // Restart mid-sequence from the persisted form.
      auto reborn = std::make_unique<NormalProfile>(config);
      reborn->restore(run.profile->samples_snapshot(),
                      run.profile->queue_snapshot());
      run.profile = std::move(reborn);
      ++run.restores;
    }
    // Every 7th batch is a burst (discarded as anomalous); every 4th sits
    // low, which the drift guard, when on, rolls back.
    const double mean = batch % 7 == 6 ? 90.0 : batch % 4 == 3 ? 35.0 : 50.0;
    NormalProfile& profile = *run.profile;
    const std::uint64_t accepted = profile.updates_accepted();
    const std::uint64_t rollbacks = profile.drift_rollbacks();
    for (std::size_t i = 0; i < sc.batch; ++i) {
      const bool outlier = sc.shape == Shape::kOutlier && batch % 8 == 7 &&
                           i == sc.batch / 2;
      profile.offer(outlier ? (batch % 16 == 7 ? 1e6 : -1e6) : draw(mean));
    }
    const bool refitted = profile.updates_accepted() != accepted ||
                          profile.drift_rollbacks() != rollbacks;
    if (!refitted) ++run.discarded;
    after_batch(profile, batch, refitted);
  }
  return run;
}

TEST_P(IncrementalRefitOracle, EveryBatchMatchesAFullSortAndTheOracle) {
  const RefitScenario& sc = GetParam();
  const double p = 1.0 - NormalProfileConfig{}.alpha / 100.0;
  int checked = 0;
  const ScenarioRun run = run_scenario(
      sc, [&](const NormalProfile& profile, int batch, bool /*refitted*/) {
        std::vector<double> want = profile.samples_snapshot();
        std::sort(want.begin(), want.end());
        const double bw = ml::GaussianKde::silverman_bandwidth(want);
        const double threshold =
            oracle::kde_percentile_sorted(want, bw, p, 80, 1e-9);
        const double got_bw = profile.bandwidth();
        const double got_threshold = profile.threshold();
        ASSERT_TRUE(same_bits(profile.sorted_samples(), want))
            << sc.name << " batch " << batch;
        ASSERT_TRUE(same_bits({&got_bw, 1}, {&bw, 1}))
            << sc.name << " batch " << batch;
        ASSERT_TRUE(same_bits({&got_threshold, 1}, {&threshold, 1}))
            << sc.name << " batch " << batch << ": " << got_threshold
            << " vs " << threshold;
        ++checked;
      });
  EXPECT_EQ(checked, 160);
  EXPECT_EQ(run.restores, 1);
  EXPECT_GT(run.discarded, 0);
  EXPECT_GT(run.profile->updates_accepted(), 0u);
  if (sc.max_drift_fraction > 0.0) {
    EXPECT_GT(run.profile->drift_rollbacks(), 0u);
  }
}

// The refit's cost contract: the approximate scan certifies the root,
// so a refit pays an exact CDF only for a bisection midpoint within
// delta of it.  Each folded or rolled-back batch's percentile is
// re-run traced on the profile it left; the totals are pinned.
TEST_P(IncrementalRefitOracle, ExactCdfCallsArePinned) {
  const RefitScenario& sc = GetParam();
  const double p = 1.0 - NormalProfileConfig{}.alpha / 100.0;
  int refits = 0;
  int exact = 0;
  int uncertified = 0;
  run_scenario(sc, [&](const NormalProfile& profile, int, bool refitted) {
    if (!refitted) return;
    const ml::detail::PercentileTrace trace = ml::detail::kde_percentile_traced(
        profile.sorted_samples(), profile.bandwidth(), p, 80, 1e-9);
    ASSERT_EQ(trace.value, profile.threshold());
    ++refits;
    exact += trace.exact_cdf_calls;
    uncertified += trace.certified ? 0 : 1;
  });
  ASSERT_GT(refits, 0);
  std::cout << sc.name << ": " << refits << " refits, "
            << static_cast<double>(exact) / refits
            << " exact CDF calls per refit, " << uncertified
            << " uncertified\n";
  EXPECT_EQ(exact, sc.exact_cdf_calls) << sc.name;
  EXPECT_EQ(uncertified, sc.uncertified) << sc.name;
}

std::string scenario_name(
    const ::testing::TestParamInfo<RefitScenario>& info) {
  return info.param.name;
}

constexpr auto kNormal = RefitScenario::Shape::kNormal;
constexpr auto kEqual = RefitScenario::Shape::kEqual;
constexpr auto kNegative = RefitScenario::Shape::kNegative;
constexpr auto kOutlier = RefitScenario::Shape::kOutlier;

INSTANTIATE_TEST_SUITE_P(
    Scenarios, IncrementalRefitOracle,
    ::testing::Values(
        RefitScenario{600, 150, 600, 0.0, false, kNormal, 3, 0, "Default"},
        RefitScenario{600, 150, 40, 0.0, false, kNormal, 3, 0,
                      "PartFullRing"},
        RefitScenario{600, 150, 600, 0.0, true, kNormal, 4, 0,
                      "IntegerDuplicates"},
        RefitScenario{600, 150, 600, 0.02, false, kNormal, 3, 0,
                      "DriftRollbacks"},
        RefitScenario{200, 50, 120, 0.02, true, kNormal, 1, 0,
                      "IntegerDriftRollbacks"},
        RefitScenario{100, 30, 10, 0.0, false, kNormal, 3, 0,
                      "BatchNotDividingCapacity"},
        RefitScenario{20, 25, 10, 0.0, false, kNormal, 0, 0,
                      "BatchFillsTheRing"},
        RefitScenario{600, 150, 600, 0.0, false, kEqual, 0, 0,
                      "EqualBatches"},
        RefitScenario{600, 150, 600, 0.0, false, kNegative, 4, 0,
                      "NegativeValues"},
        RefitScenario{600, 150, 600, 0.0, false, kOutlier, 5, 0,
                      "OutlierBatches"}),
    scenario_name);

// The refit's batch sort on its own: the values (bits included) equal
// std::sort's, every (value, seq) pair survives, equal values keep batch
// order, and the bucket pass hands a cluster with one far outlier or a
// non-finite range to the comparison sort.
std::vector<detail::RefitEntry> numbered(const std::vector<double>& values) {
  std::vector<detail::RefitEntry> batch;
  for (std::size_t i = 0; i < values.size(); ++i) {
    batch.push_back({values[i], 1000 + i});
  }
  return batch;
}

void expect_sorted_like_std_sort(const std::vector<double>& values,
                                 const char* what) {
  std::vector<detail::RefitEntry> batch = numbered(values);
  detail::sort_refit_batch(batch);
  std::vector<double> want = values;
  std::sort(want.begin(), want.end());
  std::vector<double> got;
  for (const auto& e : batch) got.push_back(e.value);
  EXPECT_TRUE(same_bits(got, want)) << what;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& e = batch[i];
    ASSERT_GE(e.seq, 1000u) << what;
    EXPECT_EQ(std::memcmp(&values[e.seq - 1000], &e.value, sizeof(double)),
              0)
        << what << " entry " << i << " lost its value";
    if (i > 0 && batch[i - 1].value == e.value) {
      EXPECT_LT(batch[i - 1].seq, e.seq) << what << " tie order at " << i;
    }
  }
}

TEST(RefitBatchSort, MatchesStdSortOnEveryShape) {
  Rng rng(0x626b74u);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(trial) % 160;
    std::vector<double> normal(m), integer(m), negative(m), equal(m, 42.5),
        clustered(m), narrow(m);
    for (std::size_t i = 0; i < m; ++i) {
      normal[i] = rng.normal(50.0, 5.0);
      integer[i] = std::round(rng.normal(50.0, 5.0));
      negative[i] = rng.normal(-250.0, 80.0);
      clustered[i] = rng.normal(3.0, 0.01);
      narrow[i] = 1.0 + 1e-300 * rng.uniform(0.0, 1.0);
    }
    clustered[m / 2] = trial % 2 == 0 ? 1e300 : -1e300;
    expect_sorted_like_std_sort(normal, "normal");
    expect_sorted_like_std_sort(integer, "integer");
    expect_sorted_like_std_sort(negative, "negative");
    expect_sorted_like_std_sort(equal, "equal");
    expect_sorted_like_std_sort(clustered, "clustered +-1e300");
    expect_sorted_like_std_sort(narrow, "narrow");
  }
}

TEST(RefitBatchSort, OverfullBucketFallsBackToTheComparisonSort) {
  Rng rng(0x6f66u);
  std::vector<double> values(150);
  for (double& v : values) v = rng.normal(50.0, 5.0);
  std::vector<detail::RefitEntry> spread = numbered(values);
  EXPECT_TRUE(detail::sort_refit_batch(spread));
  for (const double outlier : {1e300, -1e300}) {
    std::vector<double> clustered = values;
    clustered[75] = outlier;
    std::vector<detail::RefitEntry> batch = numbered(clustered);
    EXPECT_FALSE(detail::sort_refit_batch(batch)) << outlier;
    expect_sorted_like_std_sort(clustered, "one far outlier");
  }
  // Extremes more than DBL_MAX apart: the range overflows.
  std::vector<double> wide = values;
  wide[3] = -1.5e308;
  wide[9] = 1.5e308;
  std::vector<detail::RefitEntry> batch = numbered(wide);
  EXPECT_FALSE(detail::sort_refit_batch(batch));
  expect_sorted_like_std_sort(wide, "wide");
}

// The non-finite policy: infinities sort by value (the range is then not
// finite, so the comparison sort places them), NaN values go after every
// number in batch order, and no value is lost.
TEST(RefitBatchSort, NonFiniteValuesHaveADefinedPlace) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<detail::RefitEntry> batch =
      numbered({3.0, nan, inf, -1.0, -inf, nan, 2.0, 0.5});
  EXPECT_FALSE(detail::sort_refit_batch(batch));
  const std::vector<double> want_numbers{-inf, -1.0, 0.5, 2.0, 3.0, inf};
  ASSERT_EQ(batch.size(), 8u);
  for (std::size_t i = 0; i < want_numbers.size(); ++i) {
    EXPECT_EQ(batch[i].value, want_numbers[i]) << i;
  }
  EXPECT_TRUE(std::isnan(batch[6].value));
  EXPECT_TRUE(std::isnan(batch[7].value));
  EXPECT_EQ(batch[6].seq, 1001u);
  EXPECT_EQ(batch[7].seq, 1005u);
  EXPECT_EQ(batch[0].seq, 1004u);
  EXPECT_EQ(batch[5].seq, 1002u);

  // Finite numbers around NaN still take the bucket pass.
  std::vector<detail::RefitEntry> finite = numbered({5.0, nan, 1.0, 3.0});
  EXPECT_TRUE(detail::sort_refit_batch(finite));
  EXPECT_EQ(finite[0].value, 1.0);
  EXPECT_EQ(finite[1].value, 3.0);
  EXPECT_EQ(finite[2].value, 5.0);
  EXPECT_TRUE(std::isnan(finite[3].value));

  std::vector<detail::RefitEntry> only_nan = numbered({nan, nan});
  EXPECT_TRUE(detail::sort_refit_batch(only_nan));
  EXPECT_EQ(only_nan[0].seq, 1000u);
  EXPECT_EQ(only_nan[1].seq, 1001u);
}

}  // namespace
}  // namespace fadewich::core
