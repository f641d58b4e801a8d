// Differential test of RE's features: the window-block extraction (one
// arena block, entropy by sorting each column and counting runs) against
// the map-based extraction in oracle/features.hpp, bit for bit, on
// seeded window families that stress the entropy walk — integer RSSI,
// imputed runs, constant streams, mixed signed zeros.  A second test
// checks that the deployed system's Rule-1 features equal offline
// extraction over the same history windows.
#include "fadewich/core/features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/core/system.hpp"
#include "fadewich/stats/histogram.hpp"
#include "oracle/features.hpp"

namespace fadewich::core {
namespace {

enum class Family { kInteger, kImputedRuns, kConstant, kSignedZeros };

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<std::vector<double>> make_windows(Family family, Rng& rng) {
  const auto streams = static_cast<std::size_t>(rng.uniform_int(1, 80));
  const auto rows = static_cast<std::size_t>(rng.uniform_int(2, 40));
  std::vector<std::vector<double>> windows(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    auto& w = windows[s];
    w.resize(rows);
    const double mean = std::round(rng.uniform(-90.0, -40.0));
    const double sigma = rng.uniform(0.3, 6.0);
    switch (family) {
      case Family::kInteger:
        for (auto& v : w) v = std::round(rng.normal(mean, sigma));
        break;
      case Family::kImputedRuns: {
        // Report loss: the station repeats the last value for a run.
        double last = std::round(rng.normal(mean, sigma));
        for (auto& v : w) {
          if (rng.uniform() < 0.6) last = std::round(rng.normal(mean, sigma));
          v = last;
        }
        break;
      }
      case Family::kConstant:
        std::fill(w.begin(), w.end(), mean);
        break;
      case Family::kSignedZeros: {
        constexpr double kValues[] = {-0.0, 0.0, 1.0, -1.0, 0.5};
        for (auto& v : w) {
          v = kValues[rng.uniform_int(0, 4)];
        }
        break;
      }
    }
  }
  return windows;
}

class FeaturesOracle : public ::testing::TestWithParam<Family> {};

TEST_P(FeaturesOracle, MatchesTheMapBasedExtractionBitForBit) {
  Rng rng(0x66656174u + static_cast<std::uint64_t>(GetParam()));
  const FeatureConfig config;
  constexpr int kSamples = 400;
  for (int i = 0; i < kSamples; ++i) {
    const auto windows = make_windows(GetParam(), rng);
    const std::vector<double> want = oracle::extract_features(windows, config);
    const std::vector<double> got = oracle::block_features(windows, config);
    ASSERT_TRUE(same_bits(got, want)) << "sample " << i;
    for (const auto& w : windows) {
      const double h = stats::value_entropy(w);
      const double h_want = oracle::value_entropy(w);
      ASSERT_TRUE(same_bits({&h, 1}, {&h_want, 1})) << "sample " << i;
    }
  }
}

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  switch (info.param) {
    case Family::kInteger: return "Integer";
    case Family::kImputedRuns: return "ImputedRuns";
    case Family::kConstant: return "Constant";
    case Family::kSignedZeros: return "SignedZeros";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Families, FeaturesOracle,
                         ::testing::Values(Family::kInteger,
                                           Family::kImputedRuns,
                                           Family::kConstant,
                                           Family::kSignedZeros),
                         family_name);

TEST(FeaturesOracleSystem, RuleOneFeaturesEqualOfflineExtraction) {
  // Drive a small online system, recording every row and validity
  // mask; whenever Rule 1 classifies, the system's features of its live
  // window must equal offline extraction over the recorded ticks.
  constexpr std::size_t kStreams = 4;
  SystemConfig config;
  config.md.std_window = 2.0;
  config.md.calibration = 15.0;
  config.md.profile.capacity = 100;
  config.md.profile.batch_size = 50;
  FadewichSystem system(kStreams, 2, config);
  Rng rng(83);
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(kStreams,
                                             std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = std::round(rng.normal(-60.0, i % 2 ? 4.0 : 0.5));
    }
    data.add(oracle::block_features(windows, config.features), i % 2 + 1);
  }

  std::vector<std::vector<double>> rows;
  std::vector<std::vector<std::uint8_t>> masks;
  const Tick window_ticks =
      system.rate().to_ticks_ceil(config.controller.t_delta);
  int classified = 0;
  int zeroed_streams = 0;
  const auto run = [&](double seconds, double sigma) {
    for (int t = 0; t < static_cast<int>(seconds * config.tick_hz); ++t) {
      std::vector<double> row(kStreams);
      std::vector<std::uint8_t> valid(kStreams, 1);
      for (std::size_t s = 0; s < kStreams; ++s) {
        row[s] = std::round(rng.normal(-60.0, s < 2 ? sigma : 0.5));
      }
      // Stream 3 loses most reports during the second half of the run.
      if (classified >= 2 && rng.uniform() < 0.7) valid[3] = 0;
      rows.push_back(row);
      masks.push_back(valid);
      const auto result = system.step(row, valid);
      if (!result.classification) continue;
      ++classified;
      const Tick begin = system.md().current_window()->begin;
      const Tick end = std::min(begin + window_ticks - 1, system.tick() - 1);
      std::vector<std::vector<double>> windows(kStreams);
      std::vector<double> validity(kStreams, 0.0);
      for (Tick k = begin; k <= end; ++k) {
        for (std::size_t s = 0; s < kStreams; ++s) {
          windows[s].push_back(rows[static_cast<std::size_t>(k)][s]);
          validity[s] += masks[static_cast<std::size_t>(k)][s] ? 1.0 : 0.0;
        }
      }
      std::vector<double> want =
          oracle::extract_features(windows, config.features);
      ASSERT_TRUE(
          same_bits(oracle::block_features(windows, config.features), want));
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (validity[s] / static_cast<double>(end - begin + 1) >=
            config.features.min_stream_validity) {
          continue;
        }
        ++zeroed_streams;
        std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(
                                       s * kFeaturesPerStream),
                    kFeaturesPerStream, 0.0);
      }
      ASSERT_TRUE(same_bits(system.current_window_features(), want))
          << "classification " << classified;
    }
  };
  run(20.0, 0.5);  // calibration
  system.train_with(data);
  run(5.0, 0.5);
  for (int round = 0; round < 6; ++round) {
    run(6.0, 5.0);
    run(20.0, 0.5);
  }
  EXPECT_GE(classified, 4);
  EXPECT_GT(zeroed_streams, 0);
}

}  // namespace
}  // namespace fadewich::core
