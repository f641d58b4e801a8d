// The tentpole allocation budget: once the online pipeline is warm, a
// quiet FadewichSystem::step() tick must not touch the heap at all —
// the flat sample ring in NormalProfile, the reused scratch vectors, and
// the per-thread ScratchArena exist exactly so this test can pass.
//
// Counting works by replacing the global allocation functions in this
// test binary (common/counting_allocator.hpp).  Assertions run only
// outside the counted region (a failing EXPECT allocates its message).
#include "fadewich/core/system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/counting_allocator.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/core/features.hpp"
#include "fadewich/core/normal_profile.hpp"
#include "fadewich/core/radio_environment.hpp"
#include "fadewich/ml/dataset.hpp"
#include "oracle/features.hpp"

namespace fadewich::core {
namespace {

using test::CountingScope;

TEST(SystemAllocTest, CountingAllocatorSeesVectorGrowth) {
  // Sanity check on the instrumentation itself.
  std::uint64_t seen = 0;
  {
    CountingScope scope;
    std::vector<double> v(1024);
    seen = scope.count();
    (void)v;
  }
  EXPECT_GE(seen, 1u);
}

TEST(SystemAllocTest, ProfileFoldAndRollbackAreAllocationFree) {
  Rng rng(3);
  std::vector<double> seed(600);
  for (auto& v : seed) v = rng.normal(0.0, 1.0);

  // Fold path: batches from the calibrated distribution are accepted.
  NormalProfileConfig fold_config;
  fold_config.batch_size = 150;
  NormalProfile fold_profile(fold_config);
  fold_profile.initialize(seed);
  for (int i = 0; i < 150; ++i) {
    fold_profile.offer(rng.normal(0.0, 1.0));  // warm one full cycle
  }
  ASSERT_EQ(fold_profile.updates_accepted(), 1u);
  std::uint64_t fold_allocs = 0;
  {
    CountingScope scope;
    for (int i = 0; i < 300; ++i) fold_profile.offer(rng.normal(0.0, 1.0));
    fold_allocs = scope.count();
  }
  EXPECT_EQ(fold_allocs, 0u);
  EXPECT_EQ(fold_profile.updates_accepted(), 3u);

  // Rollback path: a sub-threshold but distribution-shifting batch trips
  // the drift guard, whose ring_reset restore must also stay off-heap.
  NormalProfileConfig guard_config;
  guard_config.batch_size = 150;
  guard_config.max_drift_fraction = 0.001;
  NormalProfile guarded(guard_config);
  guarded.initialize(seed);
  for (int i = 0; i < 150; ++i) guarded.offer(1.5);  // warm one rollback
  ASSERT_GE(guarded.drift_rollbacks(), 1u);
  std::uint64_t rollback_allocs = 0;
  {
    CountingScope scope;
    for (int i = 0; i < 300; ++i) guarded.offer(1.5);
    rollback_allocs = scope.count();
  }
  EXPECT_EQ(rollback_allocs, 0u);
  EXPECT_GE(guarded.drift_rollbacks(), 3u);
  EXPECT_EQ(guarded.updates_accepted(), 0u);
}

TEST(SystemAllocTest, WarmQuietOnlineStepIsAllocationFree) {
  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kWorkstations = 2;
  SystemConfig config;
  config.md.calibration = 30.0;
  // Anchor the threshold at its calibration estimate: the quiet feed
  // below runs at half the calibration sigma, and without the drift
  // guard the self-updating profile would track it down until ordinary
  // noise reads as anomalous — and anomalous ticks open variation
  // windows, which allocate by design.
  config.md.profile.max_drift_fraction = 0.02;
  FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(17);
  std::vector<double> row(kStreams);
  const auto feed = [&](double sigma, std::size_t steps) {
    for (std::size_t t = 0; t < steps; ++t) {
      for (auto& v : row) v = rng.normal(-60.0, sigma);
      system.step(row);
    }
  };
  feed(1.0, 400);  // calibration + window warm-up

  // A tiny two-class set flips the system online; the quiet feed never
  // reaches Rule 1, so only the feature dimensionality matters.
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = rng.normal(i % 2 == 0 ? -60.0 : -55.0, 1.0);
    }
    data.add(oracle::block_features(windows, config.features), i % 2);
  }
  system.train_with(data);
  ASSERT_FALSE(system.training());

  // Warm every retained buffer: stream history, MD windows, the profile
  // ring and its update queue (>= several batch folds at 150/batch).
  feed(0.5, 1500);

  // Pre-generated quiet rows so the counted loop is step() and nothing
  // else.
  constexpr std::size_t kRowTable = 128;
  constexpr std::size_t kMeasuredSteps = 1000;
  std::vector<double> rows(kRowTable * kStreams);
  for (auto& v : rows) v = rng.normal(-60.0, 0.5);

  std::uint64_t allocs = 0;
  MdState last = MdState::kCalibrating;
  {
    CountingScope scope;
    for (std::size_t t = 0; t < kMeasuredSteps; ++t) {
      const std::span<const double> r(
          rows.data() + (t % kRowTable) * kStreams, kStreams);
      last = system.step(r).md_state;
    }
    allocs = scope.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(last, MdState::kNormal);
  EXPECT_EQ(system.controller().state(), ControlState::kQuiet);
}

TEST(SystemAllocTest, WarmClassificationAndFoldTicksAreAllocationFree) {
  // The two heavy online ticks: a Rule-1 classification (window block,
  // validity, features, SVM query) and a profile batch fold (merge and
  // refit).  Every step is counted on its own; after one warm-up cycle
  // of each, the ticks that classify or fold must allocate nothing.
  // Both users keep typing, so a leave label is suppressed (no
  // deauthentication to return) and no workstation is idle for Rule 2.
  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kWorkstations = 2;
  SystemConfig config;
  config.md.calibration = 30.0;
  config.md.profile.batch_size = 50;
  FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(29);
  std::vector<double> row(kStreams);
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = std::round(rng.normal(-60.0, i % 2 ? 4.0 : 1.0));
    }
    data.add(oracle::block_features(windows, config.features), i % 2 + 1);
  }

  std::uint64_t classify_ticks = 0;
  std::uint64_t fold_ticks = 0;
  std::uint64_t heavy_allocs = 0;
  const auto feed = [&](double sigma, std::size_t steps, bool measure) {
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t w = 0; w < kWorkstations; ++w) {
        system.record_input(w, system.now());
      }
      for (auto& v : row) v = std::round(rng.normal(-60.0, sigma));
      const std::uint64_t folds = system.md().profile().updates_accepted();
      std::uint64_t allocs = 0;
      bool classified = false;
      {
        CountingScope scope;
        classified = system.step(row).classification.has_value();
        allocs = scope.count();
      }
      const bool folded = system.md().profile().updates_accepted() != folds;
      if (!measure || !(classified || folded)) continue;
      classify_ticks += classified ? 1 : 0;
      fold_ticks += folded ? 1 : 0;
      heavy_allocs += allocs;
    }
  };
  feed(1.0, 200, false);  // calibration + window warm-up
  system.train_with(data);
  ASSERT_FALSE(system.training());
  for (int cycle = 0; cycle < 4; ++cycle) {
    const bool measure = cycle >= 1;  // cycle 0 warms every buffer
    feed(6.0, 40, measure);  // movement: a window reaches t_delta
    feed(1.0, 300, measure);  // quiet: the window closes, batches fold
  }
  EXPECT_GE(classify_ticks, 3u);
  EXPECT_GE(fold_ticks, 3u);
  EXPECT_EQ(heavy_allocs, 0u);
}

TEST(SystemAllocTest, WarmDeauthAndRule2TicksAreAllocationFree) {
  // Ticks that emit actions: a Rule-1 deauthentication and the Rule-2
  // alerts that follow it while the window stays open.  Their actions go
  // into a buffer the system owns and reuses, so once warm they allocate
  // nothing.  Nobody types, so every leave label deauthenticates and no
  // alert arms a session; once the warm-up cycle has locked the sessions
  // RE names, no measured action changes a session's state (the next
  // test covers ticks that do).
  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kWorkstations = 2;
  SystemConfig config;
  config.md.calibration = 30.0;
  config.md.profile.batch_size = 50;
  FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(37);
  std::vector<double> row(kStreams);
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = std::round(rng.normal(-60.0, i % 2 ? 4.0 : 1.0));
    }
    data.add(oracle::block_features(windows, config.features),
             label_for_workstation(static_cast<std::size_t>(i % 2)));
  }

  std::uint64_t deauth_ticks = 0;
  std::uint64_t rule2_ticks = 0;
  std::uint64_t action_allocs = 0;
  const auto feed = [&](double sigma, std::size_t steps, bool measure) {
    for (std::size_t t = 0; t < steps; ++t) {
      for (auto& v : row) v = std::round(rng.normal(-60.0, sigma));
      std::uint64_t allocs = 0;
      bool deauth = false;
      bool alert = false;
      {
        CountingScope scope;
        for (const Action& a : system.step(row).actions) {
          deauth |= a.type == ActionType::kDeauthenticate;
          alert |= a.type == ActionType::kAlert;
        }
        allocs = scope.count();
      }
      if (!measure || !(deauth || alert)) continue;
      deauth_ticks += deauth ? 1 : 0;
      rule2_ticks += alert ? 1 : 0;
      action_allocs += allocs;
    }
  };
  feed(1.0, 200, false);  // calibration + window warm-up
  system.train_with(data);
  ASSERT_FALSE(system.training());
  for (int cycle = 0; cycle < 4; ++cycle) {
    const bool measure = cycle >= 1;  // cycle 0 warms every buffer
    feed(6.0, 40, measure);   // movement: Rule 1, then Rule 2 while open
    feed(1.0, 300, measure);  // quiet: the window closes
  }
  EXPECT_GE(deauth_ticks, 1u);
  EXPECT_GE(rule2_ticks, 1u);
  EXPECT_EQ(action_allocs, 0u);
}

TEST(SystemAllocTest, WarmDeauthAndReloginCycleIsAllocationFree) {
  // A session's state changes only bump a count and overwrite the last
  // transition, so a user who is deauthenticated and logs back in, over
  // and over, never grows the system.  Every step and re-login of the
  // measured cycles is counted, and they change session state more often
  // than the warm-up did, so any per-transition list would cross a
  // capacity doubling, and reallocate, inside the counted region.
  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kWorkstations = 2;
  SystemConfig config;
  config.md.calibration = 30.0;
  config.md.profile.batch_size = 50;
  FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(41);
  std::vector<double> row(kStreams);
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = std::round(rng.normal(-60.0, i % 2 ? 4.0 : 1.0));
    }
    data.add(oracle::block_features(windows, config.features),
             label_for_workstation(static_cast<std::size_t>(i % 2)));
  }
  const auto transitions = [&] {
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < kWorkstations; ++w) {
      total += system.session(w).transition_count();
    }
    return total;
  };

  std::uint64_t deauths = 0;
  std::uint64_t relogins = 0;
  std::uint64_t allocs = 0;
  const auto cycle = [&] {
    // Movement: nobody types, so a leave label deauthenticates.
    for (int t = 0; t < 40; ++t) {
      for (auto& v : row) v = std::round(rng.normal(-60.0, 6.0));
      CountingScope scope;
      for (const Action& a : system.step(row).actions) {
        deauths += a.type == ActionType::kDeauthenticate ? 1 : 0;
      }
      allocs += scope.count();
    }
    // Quiet: every locked user logs back in, then stays idle.
    for (int t = 0; t < 300; ++t) {
      for (auto& v : row) v = std::round(rng.normal(-60.0, 1.0));
      CountingScope scope;
      for (std::size_t w = 0; t == 0 && w < kWorkstations; ++w) {
        if (system.session(w).state() != SessionState::kLocked) continue;
        system.record_input(w, system.now());
        ++relogins;
      }
      system.step(row);
      allocs += scope.count();
    }
  };
  for (int t = 0; t < 200; ++t) {  // calibration + window warm-up
    for (auto& v : row) v = std::round(rng.normal(-60.0, 1.0));
    system.step(row);
  }
  system.train_with(data);
  ASSERT_FALSE(system.training());
  cycle();  // warms every buffer the cycle touches
  const std::uint64_t warm_transitions = transitions();
  deauths = 0;
  relogins = 0;
  allocs = 0;
  for (int c = 0; c < 6; ++c) cycle();
  EXPECT_GE(warm_transitions, 1u);
  EXPECT_GE(deauths, 3u);
  EXPECT_GE(relogins, 3u);
  EXPECT_GT(transitions() - warm_transitions, warm_transitions);
  EXPECT_EQ(allocs, 0u);
}

TEST(SystemAllocTest, WarmWindowClosingTicksAreAllocationFree) {
  // A step that closes a variation window only counts it and observes
  // its duration; nothing keeps a list of closed windows that grows for
  // the life of the system.  The measured phase closes at least as many
  // windows as the system closed before it, so any such list would cross
  // a capacity doubling, and reallocate, on one of the counted ticks.
  // Both users keep typing, as in the classification test above.
  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kWorkstations = 2;
  SystemConfig config;
  config.md.calibration = 30.0;
  config.md.profile.batch_size = 50;
  FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(31);
  std::vector<double> row(kStreams);
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = std::round(rng.normal(-60.0, i % 2 ? 4.0 : 1.0));
    }
    data.add(oracle::block_features(windows, config.features), i % 2 + 1);
  }

  std::uint64_t closes = 0;
  std::uint64_t closing_allocs = 0;
  const auto feed = [&](double sigma, std::size_t steps) {
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t w = 0; w < kWorkstations; ++w) {
        system.record_input(w, system.now());
      }
      for (auto& v : row) v = std::round(rng.normal(-60.0, sigma));
      const std::optional<VariationWindow> before =
          system.md().current_window();
      std::uint64_t allocs = 0;
      {
        CountingScope scope;
        system.step(row);
        allocs = scope.count();
      }
      const std::optional<VariationWindow> after =
          system.md().current_window();
      if (!before || (after && after->begin == before->begin)) continue;
      ++closes;
      closing_allocs += allocs;
    }
  };
  const auto movement_cycle = [&] {
    feed(6.0, 40);   // a window opens and reaches t_delta
    feed(1.0, 100);  // quiet: it closes
  };
  feed(1.0, 200);  // calibration + window warm-up
  system.train_with(data);
  ASSERT_FALSE(system.training());
  movement_cycle();  // warms every buffer a closing tick touches
  const std::uint64_t closes_before = closes;
  closes = 0;
  closing_allocs = 0;
  for (int cycle = 0; cycle < 8; ++cycle) movement_cycle();
  EXPECT_GE(closes_before, 1u);
  EXPECT_GE(closes, closes_before);
  EXPECT_EQ(closing_allocs, 0u);
}

}  // namespace
}  // namespace fadewich::core
