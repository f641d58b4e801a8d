#include "fadewich/defend/defender.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/net/wire.hpp"

namespace fadewich::defend {
namespace {

constexpr std::size_t kDevices = 4;

/// A well-formed decoded frame from `station`, correctly signed under
/// the given config's key schedule.
net::DecodedFrame signed_frame(const DefendConfig& config,
                               std::uint16_t station, std::uint64_t seq,
                               Tick tick, std::int8_t rssi = -50) {
  net::DecodedFrame frame;
  frame.header = {station, seq, tick, static_cast<net::DeviceId>(station)};
  for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
    if (rx == station) continue;
    frame.reports.push_back({rx, rssi});
  }
  frame.authenticated = true;
  frame.tag = net::frame_tag(
      net::derive_station_key(config.key_seed, station), frame.header,
      frame.reports);
  return frame;
}

TEST(DefenderTest, DisabledDefenderIsAPassthrough) {
  DefendConfig config;
  config.enabled = false;
  Defender defender(kDevices, config);
  net::DecodedFrame frame = signed_frame(config, 0, 1, 0);
  frame.authenticated = false;  // would be rejected if enabled
  frame.tag = 0;
  std::vector<net::Measurement> out;
  EXPECT_EQ(defender.filter_frame(frame, 0, out), FrameVerdict::kAccept);
  EXPECT_EQ(out.size(), kDevices - 1);
  EXPECT_EQ(defender.counters().frames_checked, 0u);  // untouched
}

TEST(DefenderTest, AcceptsASignedFrameAndEmitsItsReports) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  EXPECT_EQ(defender.filter_frame(signed_frame(config, 1, 1, 0), 0, out),
            FrameVerdict::kAccept);
  ASSERT_EQ(out.size(), kDevices - 1);
  EXPECT_EQ(out[0].tx, 1);
  EXPECT_EQ(out[0].rx, 0);
  EXPECT_DOUBLE_EQ(out[0].rssi_dbm, -50.0);
  EXPECT_EQ(defender.counters().frames_accepted, 1u);
  EXPECT_EQ(defender.counters().reports_accepted, kDevices - 1);
}

TEST(DefenderTest, RejectsUnauthenticatedAndForgedTags) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;

  net::DecodedFrame unsigned_frame = signed_frame(config, 0, 1, 0);
  unsigned_frame.authenticated = false;
  EXPECT_EQ(defender.filter_frame(unsigned_frame, 0, out),
            FrameVerdict::kUnauthenticated);

  net::DecodedFrame bad_tag = signed_frame(config, 0, 2, 0);
  bad_tag.tag ^= 1;
  EXPECT_EQ(defender.filter_frame(bad_tag, 0, out), FrameVerdict::kBadTag);

  // A frame signed under the wrong station's identity dies the same way.
  net::DecodedFrame cross = signed_frame(config, 1, 3, 0);
  cross.header.station_id = 2;
  EXPECT_EQ(defender.filter_frame(cross, 0, out), FrameVerdict::kBadTag);

  EXPECT_TRUE(out.empty());
  EXPECT_EQ(defender.counters().unauthenticated, 1u);
  EXPECT_EQ(defender.counters().bad_tag, 2u);
  EXPECT_EQ(defender.counters().frames_rejected(), 3u);
}

TEST(DefenderTest, UnknownStationIsRejectedBeforeAnyOtherWork) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  net::DecodedFrame frame = signed_frame(config, 0, 1, 0);
  frame.header.station_id = 99;
  std::vector<net::Measurement> out;
  EXPECT_EQ(defender.filter_frame(frame, 0, out),
            FrameVerdict::kUnknownStation);
  EXPECT_EQ(defender.counters().unknown_station, 1u);
}

TEST(DefenderTest, ReplayedAndStaleSequencesAreRejected) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  const net::DecodedFrame frame = signed_frame(config, 0, 100, 5);
  EXPECT_EQ(defender.filter_frame(frame, 5, out), FrameVerdict::kAccept);
  // The identical frame again: a replay, even though the tag verifies.
  EXPECT_EQ(defender.filter_frame(frame, 6, out), FrameVerdict::kReplayed);
  // Far below the window: indistinguishable from a replay, rejected.
  EXPECT_EQ(defender.filter_frame(signed_frame(config, 0, 10, 5), 6, out),
            FrameVerdict::kStale);
  EXPECT_EQ(defender.counters().replayed, 1u);
  EXPECT_EQ(defender.counters().stale, 1u);
}

TEST(DefenderTest, SpoofConflictQuarantinesTheStationIdentity) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 0, 7, 3, -50), 3, out),
      FrameVerdict::kAccept);
  // Same seq, different content, valid tag: only a compromised key can
  // produce this, so the identity itself is no longer trustworthy.
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 0, 7, 3, -60), 4, out),
      FrameVerdict::kSpoofConflict);
  EXPECT_TRUE(defender.station_quarantined(0, 5));
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 0, 8, 5, -50), 5, out),
      FrameVerdict::kStationQuarantined);
  // Other stations keep reporting.
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 1, 8, 5, -50), 5, out),
      FrameVerdict::kAccept);
  EXPECT_EQ(defender.counters().spoof_conflicts, 1u);
  EXPECT_EQ(defender.counters().station_quarantine_drops, 1u);
}

TEST(DefenderTest, TokenBucketAbsorbsBurstsButStopsFloods) {
  DefendConfig config;
  config.require_auth = false;  // isolate the rate limiter
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  std::uint64_t seq = 1;
  // The whole burst budget passes...
  for (std::size_t i = 0; i < static_cast<std::size_t>(config.rate_burst);
       ++i) {
    net::DecodedFrame frame = signed_frame(config, 2, seq++, 0);
    ASSERT_EQ(defender.filter_frame(frame, 0, out), FrameVerdict::kAccept)
        << i;
  }
  // ...then the bucket is dry.
  EXPECT_EQ(defender.filter_frame(signed_frame(config, 2, seq++, 0), 0, out),
            FrameVerdict::kRateLimited);
  // Next tick refills rate_per_tick tokens — exactly that many pass.
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(config.rate_per_tick); ++i) {
    EXPECT_EQ(
        defender.filter_frame(signed_frame(config, 2, seq++, 1), 1, out),
        FrameVerdict::kAccept);
  }
  EXPECT_EQ(defender.filter_frame(signed_frame(config, 2, seq++, 1), 1, out),
            FrameVerdict::kRateLimited);
  EXPECT_EQ(defender.counters().rate_limited, 2u);
}

TEST(DefenderTest, RejoinRampBlendsBackFromTheHeldValue) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  // Stream (tx 0, rx 1) reports -50, then goes dark past the rejoin
  // gap, then comes back 30 dB lower — the step a resumed outage makes.
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 0, 1, 0, -50), 0, out),
      FrameVerdict::kAccept);
  out.clear();
  const Tick resume = config.rejoin_gap_ticks + 10;
  EXPECT_EQ(defender.filter_frame(
                signed_frame(config, 0, 2, resume, -80), resume, out),
            FrameVerdict::kAccept);
  ASSERT_EQ(out.size(), kDevices - 1);
  // First ramped sample: alpha = 1/ramp_ticks, barely off the hold.
  const double alpha = 1.0 / static_cast<double>(config.ramp_ticks);
  EXPECT_NEAR(out[0].rssi_dbm, -50.0 + alpha * (-80.0 + 50.0), 1e-9);
  EXPECT_GT(defender.counters().ramped_samples, 0u);
  out.clear();
  // A tick later the blend has advanced.
  EXPECT_EQ(defender.filter_frame(
                signed_frame(config, 0, 3, resume + 1, -80), resume + 1,
                out),
            FrameVerdict::kAccept);
  EXPECT_NEAR(out[0].rssi_dbm, -50.0 + 2 * alpha * (-80.0 + 50.0), 1e-9);
}

TEST(DefenderTest, GapFreeStreamsAreNeverRamped) {
  const DefendConfig config;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  for (Tick t = 0; t < 50; ++t) {
    out.clear();
    const auto rssi = static_cast<std::int8_t>(-50 - (t % 3));
    ASSERT_EQ(defender.filter_frame(
                  signed_frame(config, 0, static_cast<std::uint64_t>(t + 1),
                               t, rssi),
                  t, out),
              FrameVerdict::kAccept);
    ASSERT_EQ(out.size(), kDevices - 1);
    EXPECT_DOUBLE_EQ(out[0].rssi_dbm, static_cast<double>(rssi)) << t;
  }
  EXPECT_EQ(defender.counters().ramped_samples, 0u);
}

TEST(DefenderTest, OutOfRangeReportIdsAreForwardedForStationAccounting) {
  DefendConfig config;
  config.require_auth = false;
  Defender defender(kDevices, config);
  net::DecodedFrame frame;
  frame.header = {0, 1, 0, 0};
  frame.reports.push_back({500, -50});  // rx outside the deployment
  std::vector<net::Measurement> out;
  EXPECT_EQ(defender.filter_frame(frame, 0, out), FrameVerdict::kAccept);
  ASSERT_EQ(out.size(), 1u);  // forwarded: CentralStation counts it
  EXPECT_EQ(out[0].rx, 500);
}

TEST(DefenderTest, FromEnvReadsTheKnobs) {
  ::setenv("FADEWICH_DEFEND", "0", 1);
  ::setenv("FADEWICH_DEFEND_KEYSEED", "12345", 1);
  ::setenv("FADEWICH_DEFEND_RATE", "2.5", 1);
  const DefendConfig config = DefendConfig::from_env();
  EXPECT_FALSE(config.enabled);
  EXPECT_EQ(config.key_seed, 12345u);
  EXPECT_DOUBLE_EQ(config.rate_per_tick, 2.5);
  EXPECT_DOUBLE_EQ(config.rate_burst, 40.0);

  // Key seed 0 and the u64 maximum are valid seeds.
  ::setenv("FADEWICH_DEFEND", "on", 1);
  ::setenv("FADEWICH_DEFEND_KEYSEED", "0", 1);
  EXPECT_TRUE(DefendConfig::from_env().enabled);
  EXPECT_EQ(DefendConfig::from_env().key_seed, 0u);
  ::setenv("FADEWICH_DEFEND_KEYSEED", "18446744073709551615", 1);
  EXPECT_EQ(DefendConfig::from_env().key_seed, ~std::uint64_t{0});

  // Malformed values throw instead of silently falling back.
  const auto rejects = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    EXPECT_THROW(DefendConfig::from_env(), Error) << name << "=" << value;
    ::unsetenv(name);
  };
  ::unsetenv("FADEWICH_DEFEND");
  ::unsetenv("FADEWICH_DEFEND_KEYSEED");
  ::unsetenv("FADEWICH_DEFEND_RATE");
  rejects("FADEWICH_DEFEND", "yes");
  rejects("FADEWICH_DEFEND", "2");
  rejects("FADEWICH_DEFEND_KEYSEED", "abc");
  rejects("FADEWICH_DEFEND_KEYSEED", "12x");
  rejects("FADEWICH_DEFEND_KEYSEED", "-1");
  rejects("FADEWICH_DEFEND_KEYSEED", " 7");
  rejects("FADEWICH_DEFEND_KEYSEED", "0x10");
  rejects("FADEWICH_DEFEND_KEYSEED", "18446744073709551616");
  rejects("FADEWICH_DEFEND_RATE", "-1");
  rejects("FADEWICH_DEFEND_RATE", "0");
  rejects("FADEWICH_DEFEND_RATE", "fast");
  rejects("FADEWICH_DEFEND_RATE", "inf");

  const DefendConfig defaults = DefendConfig::from_env();
  EXPECT_TRUE(defaults.enabled);
  EXPECT_EQ(defaults.key_seed, DefendConfig{}.key_seed);
  EXPECT_DOUBLE_EQ(defaults.rate_per_tick, DefendConfig{}.rate_per_tick);
}

TEST(DefenderTest, SignedReplayDigestIsTheVerifiedTag) {
  const DefendConfig config;  // require_auth on
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  const net::DecodedFrame frame = signed_frame(config, 0, 9, 4, -50);
  EXPECT_EQ(defender.filter_frame(frame, 4, out), FrameVerdict::kAccept);
  // Verbatim replay: same seq, same tag.
  EXPECT_EQ(defender.filter_frame(frame, 5, out), FrameVerdict::kReplayed);
  // Re-signed under the station key with different content at the same
  // seq: a different verified tag, so a spoof conflict.
  EXPECT_EQ(
      defender.filter_frame(signed_frame(config, 0, 9, 4, -61), 5, out),
      FrameVerdict::kSpoofConflict);
  EXPECT_EQ(defender.counters().replayed, 1u);
  EXPECT_EQ(defender.counters().spoof_conflicts, 1u);
}

TEST(DefenderTest, UnsignedReplayDigestIgnoresTheUnverifiedTag) {
  DefendConfig config;
  config.require_auth = false;
  Defender defender(kDevices, config);
  std::vector<net::Measurement> out;
  // The same content tagged, then tag-stripped, at one seq: a replay.
  // The tag is unverified here, so it must not make the copies differ.
  const net::DecodedFrame tagged = signed_frame(config, 1, 3, 2, -55);
  net::DecodedFrame stripped = tagged;
  stripped.authenticated = false;
  stripped.tag = 0;
  EXPECT_EQ(defender.filter_frame(tagged, 2, out), FrameVerdict::kAccept);
  EXPECT_EQ(defender.filter_frame(stripped, 3, out), FrameVerdict::kReplayed);
  // A garbage tag on the same content is still the same content.
  net::DecodedFrame garbage = tagged;
  garbage.tag ^= 0xFFFF;
  EXPECT_EQ(defender.filter_frame(garbage, 3, out), FrameVerdict::kReplayed);
  EXPECT_EQ(defender.counters().spoof_conflicts, 0u);
  // Different untagged content at that seq is a spoof conflict.
  net::DecodedFrame changed = signed_frame(config, 1, 3, 2, -70);
  changed.authenticated = false;
  changed.tag = 0;
  EXPECT_EQ(defender.filter_frame(changed, 3, out),
            FrameVerdict::kSpoofConflict);
  EXPECT_EQ(defender.counters().replayed, 2u);
  EXPECT_EQ(defender.counters().spoof_conflicts, 1u);
}

}  // namespace
}  // namespace fadewich::defend
