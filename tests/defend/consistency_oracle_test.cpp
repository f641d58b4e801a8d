// Differential tests: ConsistencyChecker::check_frame (exact integer
// window, integer thresholds, branch-free update) against the per-sample
// reference in oracle/consistency.hpp (Welford window, plain ifs).  Both
// judge the same seeded frames; verdicts and quarantine entries must
// agree sample by sample.
//
// The two windows can only disagree when a window's exact standard
// deviation equals a cap: the integer test says "not over", while Welford
// may land an ulp either side.  The reference therefore settles exact
// ties with the integer rule (seeded streams do hit a few), and a
// dedicated test pins a window where Welford rounds over.

#include "fadewich/defend/consistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/rf/pathloss.hpp"
#include "oracle/consistency.hpp"

namespace fadewich::defend {
namespace {

using oracle::ReferenceChecker;

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

  // One frame per transmitter and tick, its receivers in order: the
  // samples reach both checkers in stream order.
  std::size_t flagged = 0;
  std::vector<net::WireReport> frame;
  std::array<SampleVerdict, 2> got{};
  std::array<SampleVerdict, 2> want{};
  for (std::size_t t = 0; t < length; ++t) {
    const auto now = static_cast<Tick>(t);
    for (net::DeviceId tx = 0; tx < 3; ++tx) {
      frame.clear();
      for (net::DeviceId rx = 0; rx < 3; ++rx) {
        if (rx != tx) {
          frame.push_back({rx, streams[checker.stream_of(tx, rx)][t]});
        }
      }
      checker.check_frame(tx, frame, now, got);
      reference.check_frame(tx, frame, now, want);
      for (std::size_t i = 0; i < frame.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "tx " << tx << " rx " << frame[i].rx << " tick " << t
            << " sample " << int{frame[i].rssi_dbm};
        if (got[i] != SampleVerdict::kOk) ++flagged;
      }
      ASSERT_EQ(checker.quarantines(), reference.quarantines())
          << "tx " << tx << " tick " << t;
    }
  }
  // The streams exercised every path, not just the accept path.
  EXPECT_GT(reference.quarantines(), 3u);
  EXPECT_GT(flagged, streams.size() * length / 10);
  EXPECT_LT(flagged, streams.size() * length * 9 / 10);
}

TEST_P(ConsistencyOracle, HostileFramesMatchTheReference) {
  // Frames as an attacker or a broken station sends them: transmitters
  // out of order and out of range, receivers shuffled, repeated within
  // a frame, out of range and equal to the transmitter.  Repeats must
  // be judged in order, as successive samples of one link.
  constexpr std::size_t kDevices = 4;
  const std::vector<rf::Point> positions = {
      {0.0, 0.0}, {1.0, 0.0}, {4.0, 0.0}, {2.0, 3.0}};
  ConsistencyChecker checker(kDevices, ConsistencyConfig{}, positions,
                             rf::PathLossConfig{}, 0.0);
  ReferenceChecker reference(checker);

  Rng rng(GetParam() + 100);
  const std::size_t length = 3000;
  std::vector<std::vector<std::int8_t>> streams;
  for (std::size_t s = 0; s < checker.stream_count(); ++s) {
    streams.push_back(
        seeded_stream(rng, checker.static_bound_dbm(s), length));
  }

  std::array<std::size_t, static_cast<std::size_t>(SampleVerdict::kUnchecked) + 1>
      seen{};
  std::vector<net::DeviceId> order(kDevices + 1);
  std::vector<net::WireReport> frame;
  std::vector<SampleVerdict> got;
  std::vector<SampleVerdict> want;
  for (std::size_t t = 0; t < length; ++t) {
    const auto now = static_cast<Tick>(t);
    for (std::size_t d = 0; d < order.size(); ++d) {
      order[d] = static_cast<net::DeviceId>(d);  // kDevices: out of range
    }
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (const net::DeviceId tx : order) {
      frame.clear();
      for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
        if (rx == tx) continue;
        const std::int8_t x =
            tx < kDevices ? streams[checker.stream_of(tx, rx)][t]
                          : std::int8_t{-60};
        frame.push_back({rx, x});
        if (rng.bernoulli(0.15)) frame.push_back({rx, x});  // repeat
        if (rng.bernoulli(0.001)) {
          // A second, different sample for the same link.
          frame.push_back({rx, static_cast<std::int8_t>(x - 3)});
        }
      }
      if (rng.bernoulli(0.1)) frame.push_back({tx, -50});  // rx == tx
      if (rng.bernoulli(0.1)) {
        frame.push_back({static_cast<net::DeviceId>(
                             kDevices + rng.uniform_int(0, 60000)),
                         -50});
      }
      std::shuffle(frame.begin(), frame.end(), rng.engine());
      got.assign(frame.size(), SampleVerdict::kOk);
      want.assign(frame.size(), SampleVerdict::kOk);
      checker.check_frame(tx, frame, now, got);
      reference.check_frame(tx, frame, now, want);
      for (std::size_t i = 0; i < frame.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "tx " << tx << " rx " << frame[i].rx << " report " << i
            << " tick " << t << " sample " << int{frame[i].rssi_dbm};
        ++seen[static_cast<std::size_t>(got[i])];
      }
      ASSERT_EQ(checker.quarantines(), reference.quarantines())
          << "tx " << tx << " tick " << t;
    }
    for (std::size_t s = 0; s < checker.stream_count(); ++s) {
      ASSERT_EQ(checker.quarantined(s, now + 1),
                reference.quarantined(s, now + 1))
          << "stream " << s << " tick " << t;
    }
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    EXPECT_GT(seen[v], 0u) << "verdict " << v << " never seen";
  }
  EXPECT_GT(reference.quarantines(), 3u);
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
    const net::WireReport report{1, window[t]};
    SampleVerdict verdict{};
    checker.check_frame(0, {&report, 1}, static_cast<Tick>(t), {&verdict, 1});
    EXPECT_EQ(verdict, SampleVerdict::kOk) << t;
  }
}

}  // namespace
}  // namespace fadewich::defend
