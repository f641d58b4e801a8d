// Differential test: ConsistencyChecker's exact integer window against a
// reference checker built on the floating Welford window
// (oracle/rolling_window.hpp).  Both judge the same seeded int8 sample
// streams; verdicts and quarantine entries must agree sample by sample.
//
// The two windows can only disagree when a window's exact standard
// deviation equals a cap: the integer test says "not over", while Welford
// may land an ulp either side.  The reference therefore settles exact
// ties with the integer rule (seeded streams do hit a few), and a
// dedicated test pins a window where Welford rounds over.

#include "fadewich/defend/consistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/rf/pathloss.hpp"
#include "oracle/rolling_window.hpp"

namespace fadewich::defend {
namespace {

// The consistency rules over a stats::RollingWindow of doubles.
class ReferenceChecker {
 public:
  explicit ReferenceChecker(const ConsistencyChecker& twin)
      : config_(twin.config()) {
    for (std::size_t s = 0; s < twin.stream_count(); ++s) {
      bounds_.push_back(twin.static_bound_dbm(s));
      links_.emplace_back(twin.window_ticks());
    }
  }

  SampleVerdict check(std::size_t stream, double x, Tick now) {
    Link& link = links_[stream];
    const bool quarantined = link.quarantine_until > now;
    const auto violate = [&](std::uint32_t weight, SampleVerdict verdict) {
      if (quarantined) {
        link.quarantine_until = now + config_.quarantine_ticks;
        return SampleVerdict::kQuarantined;
      }
      link.suspicion += weight;
      if (link.suspicion >= config_.suspicion_threshold) {
        link.quarantine_until = now + config_.quarantine_ticks;
        link.suspicion = 0;
        ++quarantines_;
      }
      return verdict;
    };
    if (x > bounds_[stream] || x < config_.floor_dbm) {
      return violate(config_.bound_weight, SampleVerdict::kImpossible);
    }
    const bool repeat = link.has_last && x == link.last;
    link.run = repeat ? link.run + 1 : 1;
    link.last = x;
    link.has_last = true;
    const bool stuck = link.run >= config_.stuck_run_ticks;
    if (stuck) link.run = 1;
    link.window.push(x);
    if (stuck) return violate(config_.stuck_weight, SampleVerdict::kStuck);
    if (link.window.full()) {
      const double std = link.window.stddev();
      if (over(link.window, std, config_.hard_window_std_db)) {
        return violate(config_.bound_weight, SampleVerdict::kExcessVariance);
      }
      if (over(link.window, std, config_.max_window_std_db)) {
        return violate(config_.variance_weight,
                       SampleVerdict::kExcessVariance);
      }
    }
    if (quarantined) return SampleVerdict::kQuarantined;
    if (link.suspicion > 0) --link.suspicion;
    return SampleVerdict::kOk;
  }

  std::uint64_t quarantines() const { return quarantines_; }

 private:
  struct Link {
    stats::RollingWindow window;
    double last = 0.0;
    bool has_last = false;
    std::uint32_t run = 1;
    std::uint32_t suspicion = 0;
    Tick quarantine_until = -1;
    explicit Link(std::size_t n) : window(n) {}
  };

  // Welford's std > cap, except at an exact tie (integer samples), which
  // is "not over".
  static bool over(const stats::RollingWindow& window, double std,
                   double cap) {
    std::int64_t sum = 0, sum_sq = 0;
    for (const double v : window.values()) {
      const auto x = static_cast<std::int64_t>(v);
      sum += x;
      sum_sq += x * x;
    }
    const auto n = static_cast<std::int64_t>(window.size());
    const double limit = (cap * static_cast<double>(n)) *
                         (cap * static_cast<double>(n));
    if (static_cast<double>(n * sum_sq - sum * sum) == limit) return false;
    return std > cap;
  }

  ConsistencyConfig config_;
  std::vector<double> bounds_;
  std::vector<Link> links_;
  std::uint64_t quarantines_ = 0;
};

enum class Mode { kHonest, kJamMimic, kFrozen, kImpossible };

// One stream's samples: segments of honest jitter, +/-30 dB jam-mimic,
// frozen runs past the stuck limit and impossible values, separated by
// honest stretches long enough for sliding quarantines to lapse.
std::vector<std::int8_t> seeded_stream(Rng& rng, double bound_dbm,
                                       std::size_t length) {
  std::vector<std::int8_t> out;
  const double level = rng.uniform(-80.0, -50.0);
  const auto clamp8 = [](double v) {
    return static_cast<std::int8_t>(std::clamp(v, -128.0, 127.0));
  };
  while (out.size() < length) {
    // Half the segments are honest, and long enough to outlast a
    // quarantine (600 ticks) now and then; some honest links are noisy
    // enough to trip the soft cap on their own.
    const bool honest = rng.bernoulli(0.5);
    const auto mode = honest ? Mode::kHonest
                             : static_cast<Mode>(rng.uniform_int(1, 3));
    const std::size_t len = static_cast<std::size_t>(
        honest ? rng.uniform_int(50, 1500) : rng.uniform_int(5, 400));
    const double sigma =
        rng.bernoulli(0.8) ? rng.uniform(0.5, 4.0) : rng.uniform(4.0, 10.0);
    const auto frozen = clamp8(std::round(level));
    for (std::size_t i = 0; i < len && out.size() < length; ++i) {
      switch (mode) {
        case Mode::kHonest:
          out.push_back(clamp8(std::round(rng.normal(level, sigma))));
          break;
        case Mode::kJamMimic:
          out.push_back(clamp8(std::round(
              level + (i % 2 == 0 ? 30.0 : -30.0) + rng.normal(0.0, 2.0))));
          break;
        case Mode::kFrozen:
          out.push_back(frozen);
          break;
        case Mode::kImpossible:
          // Mostly plausible with sporadic under-floor or over-bound
          // values.
          if (rng.bernoulli(0.3)) {
            out.push_back(rng.bernoulli(0.5) || !(bound_dbm < 127.0)
                              ? std::int8_t{-128}
                              : clamp8(std::floor(bound_dbm) + 1.0));
          } else {
            out.push_back(clamp8(std::round(rng.normal(level, 2.0))));
          }
          break;
      }
    }
  }
  return out;
}

class ConsistencyOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsistencyOracle, VerdictsAndQuarantinesMatchSampleBySample) {
  // Three devices on a line: the 1 m links have a static bound near
  // -18 dBm, well inside the int8 range.
  const std::vector<rf::Point> positions = {
      {0.0, 0.0}, {1.0, 0.0}, {4.0, 0.0}};
  ConsistencyChecker checker(3, ConsistencyConfig{}, positions,
                             rf::PathLossConfig{}, 0.0);
  ReferenceChecker reference(checker);

  Rng rng(GetParam());
  const std::size_t length = 6000;
  std::vector<std::vector<std::int8_t>> streams;
  for (std::size_t s = 0; s < checker.stream_count(); ++s) {
    streams.push_back(
        seeded_stream(rng, checker.static_bound_dbm(s), length));
  }

  std::size_t flagged = 0;
  for (std::size_t t = 0; t < length; ++t) {
    const auto now = static_cast<Tick>(t);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::int8_t x = streams[s][t];
      const SampleVerdict got = checker.check(s, x, now);
      ASSERT_EQ(got, reference.check(s, x, now))
          << "stream " << s << " tick " << t << " sample " << int{x};
      ASSERT_EQ(checker.quarantines(), reference.quarantines())
          << "stream " << s << " tick " << t;
      if (got != SampleVerdict::kOk) ++flagged;
    }
  }
  // The streams exercised every path, not just the accept path.
  EXPECT_GT(reference.quarantines(), 3u);
  EXPECT_GT(flagged, streams.size() * length / 10);
  EXPECT_LT(flagged, streams.size() * length * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ConsistencyOracleTie, StdExactlyAtTheSoftCapIsNotOver) {
  // 25 samples with n*Sx2 - Sx^2 == (8 * 25)^2: population std is
  // exactly the 8 dB soft cap.  Welford reads 8.000000000000002 here.
  const std::vector<std::int8_t> window = {
      -51, -63, -58, -50, -67, -64, -51, -67, -50, -65, -64, -56, -58,
      -51, -61, -69, -50, -68, -70, -52, -53, -50, -61, -67, -79};
  const ConsistencyConfig config;
  ASSERT_EQ(window.size(), config.window_ticks);
  std::int64_t sum = 0, sum_sq = 0;
  for (const std::int8_t x : window) {
    sum += x;
    sum_sq += std::int64_t{x} * x;
  }
  const auto n = static_cast<std::int64_t>(window.size());
  ASSERT_EQ(n * sum_sq - sum * sum, (8 * n) * (8 * n));

  ConsistencyChecker checker(2, config);
  for (std::size_t t = 0; t < window.size(); ++t) {
    EXPECT_EQ(checker.check(0, window[t], static_cast<Tick>(t)),
              SampleVerdict::kOk)
        << t;
  }
}

}  // namespace
}  // namespace fadewich::defend
