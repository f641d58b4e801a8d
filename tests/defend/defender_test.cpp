#include "fadewich/defend/defender.hpp"

#include <gtest/gtest.h>

#include <vector>

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
  const DefendConfig config;
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
  const DefendConfig config;
  Defender defender(kDevices, config);
  net::DecodedFrame frame;
  frame.header = {0, 1, 0, 0};
  frame.reports.push_back({500, -50});  // rx outside the deployment
  frame.authenticated = true;
  frame.tag = net::frame_tag(net::derive_station_key(config.key_seed, 0),
                             frame.header, frame.reports);
  std::vector<net::Measurement> out;
  EXPECT_EQ(defender.filter_frame(frame, 0, out), FrameVerdict::kAccept);
  ASSERT_EQ(out.size(), 1u);  // forwarded: CentralStation counts it
  EXPECT_EQ(out[0].rx, 500);
}

TEST(DefenderTest, SignedReplayDigestIsTheVerifiedTag) {
  const DefendConfig config;
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

}  // namespace
}  // namespace fadewich::defend
