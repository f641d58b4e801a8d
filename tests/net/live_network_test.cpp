#include "fadewich/net/live_network.hpp"

#include <gtest/gtest.h>

#include "fadewich/common/error.hpp"

namespace fadewich::net {
namespace {

std::vector<rf::Point> sensors() {
  return {{0.0, 0.0}, {6.0, 0.0}, {3.0, 3.0}};
}

rf::ChannelConfig quiet_config() {
  rf::ChannelConfig config;
  config.interference_mean_gap_s = 0.0;
  return config;
}

FaultConfig lossy(double p) {
  FaultConfig faults;
  faults.drop_probability = p;
  return faults;
}

StationConfig deadline(Tick ticks) {
  StationConfig config;
  config.deadline_ticks = ticks;
  return config;
}

TEST(LiveNetworkTest, RoundProducesOneRowPerTick) {
  LiveSensorNetwork net(sensors(), quiet_config(), 5.0, 1);
  EXPECT_EQ(net.stream_count(), 6u);
  EXPECT_EQ(net.current_tick(), 0);
  const auto rows = net.round({});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tick, 0);
  EXPECT_TRUE(rows[0].complete());
  EXPECT_EQ(rows[0].values.size(), 6u);
  EXPECT_EQ(net.current_tick(), 1);
}

TEST(LiveNetworkTest, RowsMatchChannelOrdering) {
  LiveSensorNetwork net(sensors(), quiet_config(), 5.0, 2);
  const auto rows = net.round({});
  ASSERT_EQ(rows.size(), 1u);
  for (double v : rows[0].values) {
    EXPECT_GE(v, -100.0);
    EXPECT_LE(v, -20.0);
  }
}

TEST(LiveNetworkTest, BodiesAffectTheRound) {
  rf::ChannelConfig config = quiet_config();
  config.quantize = false;
  config.fading.sigma_db = 0.0;
  LiveSensorNetwork net(sensors(), config, 5.0, 3);
  const auto baseline = net.round({});
  const std::vector<rf::BodyState> bodies{
      rf::BodyState{{3.0, 0.0}, 0.0}};  // on the 0-1 link
  const auto blocked = net.round(bodies);
  const auto s = net.channel().stream_index(0, 1);
  EXPECT_LT(blocked[0].values[s], baseline[0].values[s] - 5.0);
}

TEST(LiveNetworkTest, TickCounterAdvancesPerRound) {
  LiveSensorNetwork net(sensors(), quiet_config(), 5.0, 5);
  for (int i = 0; i < 10; ++i) net.round({});
  EXPECT_EQ(net.current_tick(), 10);
}

TEST(LiveNetworkTest, RejectsNonPositiveTickRate) {
  EXPECT_THROW(LiveSensorNetwork(sensors(), quiet_config(), 0.0, 1),
               ContractViolation);
}

TEST(LiveNetworkTest, FaultsRequireAReleaseDeadline) {
  // Every station has a deadline now (>= 1, default 1), so the default
  // config serves a faulty network; only a zero deadline is refused.
  EXPECT_NO_THROW(LiveSensorNetwork(sensors(), quiet_config(), 5.0, 1,
                                    lossy(0.1), StationConfig{}));
  EXPECT_THROW(LiveSensorNetwork(sensors(), quiet_config(), 5.0, 1,
                                 lossy(0.1), deadline(0)),
               Error);
}

TEST(LiveNetworkTest, DisabledFaultPathMatchesPlainNetworkExactly) {
  LiveSensorNetwork plain(sensors(), quiet_config(), 5.0, 11);
  LiveSensorNetwork gated(sensors(), quiet_config(), 5.0, 11,
                          FaultConfig{}, StationConfig{});
  for (int i = 0; i < 50; ++i) {
    const auto a = plain.round({});
    const auto b = gated.round({});
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(a[0].values, b[0].values) << "tick " << i;
  }
}

TEST(LiveNetworkTest, LossyNetworkKeepsProducingOrderedRows) {
  LiveSensorNetwork net(sensors(), quiet_config(), 5.0, 7, lossy(0.3),
                        deadline(3));
  Tick last = -1;
  std::size_t rows_seen = 0;
  std::size_t stale_cells = 0;
  const int rounds = 400;
  for (int i = 0; i < rounds; ++i) {
    for (const auto& row : net.round({})) {
      EXPECT_GT(row.tick, last);
      last = row.tick;
      ++rows_seen;
      for (const auto v : row.valid) {
        if (!v) ++stale_cells;
      }
    }
  }
  // The deadline guarantees release: every tick except the trailing
  // in-flight window must have been delivered, and 30% loss must have
  // produced stale cells and health counters.
  EXPECT_GE(rows_seen, static_cast<std::size_t>(rounds) - 4);
  EXPECT_GT(stale_cells, 0u);
  EXPECT_GT(net.station().health().incomplete_releases, 0u);
  EXPECT_GT(net.injector()->counters().dropped, 0u);
}

TEST(LiveNetworkTest, SensorOutageMarksItsStreamsStale) {
  FaultConfig faults;
  faults.outages.push_back({2, 10, 10'000});
  LiveSensorNetwork net(sensors(), quiet_config(), 5.0, 9, faults,
                        deadline(2));
  std::vector<StationRow> after_outage;
  for (int i = 0; i < 40; ++i) {
    for (auto& row : net.round({})) {
      if (row.tick >= 12) after_outage.push_back(std::move(row));
    }
  }
  ASSERT_FALSE(after_outage.empty());
  const auto& station = net.station();
  for (const auto& row : after_outage) {
    for (DeviceId other = 0; other < 2; ++other) {
      EXPECT_FALSE(row.valid[station.stream_index(2, other)]);
      EXPECT_FALSE(row.valid[station.stream_index(other, 2)]);
      EXPECT_TRUE(row.valid[station.stream_index(0, 1)]);
    }
  }
}

}  // namespace
}  // namespace fadewich::net
