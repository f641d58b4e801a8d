#include "fadewich/net/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::net {
namespace {

Measurement report(DeviceId tx, DeviceId rx, Tick tick) {
  return {tx, rx, tick, -50.0 - static_cast<double>(tick % 7)};
}

/// Run `ticks` full beacon rounds through the injector, returning every
/// measurement it delivered, in delivery order.
std::vector<Measurement> run_rounds(FaultInjector& injector, Tick ticks) {
  std::vector<Measurement> delivered;
  const auto m = static_cast<DeviceId>(injector.device_count());
  for (Tick t = 0; t < ticks; ++t) {
    for (DeviceId tx = 0; tx < m; ++tx) {
      for (DeviceId rx = 0; rx < m; ++rx) {
        if (tx == rx) continue;
        injector.offer(report(tx, rx, t), delivered);
      }
    }
    injector.advance(t, delivered);
  }
  return delivered;
}

TEST(FaultInjectorTest, RejectsInvalidConfig) {
  // Config errors are runtime data errors (sweep files, CLI flags), so
  // they throw the recoverable Error, not a contract violation.
  EXPECT_THROW(FaultInjector(1, FaultConfig{}, 1), Error);
  FaultConfig bad;
  bad.drop_probability = 1.5;
  EXPECT_THROW(FaultInjector(3, bad, 1), Error);
  FaultConfig nan_prob;
  nan_prob.delay_probability = std::nan("");
  EXPECT_THROW(FaultInjector(3, nan_prob, 1), Error);
  FaultConfig delay;
  delay.delay_probability = 0.5;
  delay.max_delay_ticks = 0;
  EXPECT_THROW(FaultInjector(3, delay, 1), Error);
  FaultConfig outage;
  outage.outages.push_back({5, 0, 10});  // device out of range
  EXPECT_THROW(FaultInjector(3, outage, 1), Error);
  FaultConfig reversed;
  reversed.outages.push_back({0, 10, 5});  // from > to
  EXPECT_THROW(FaultInjector(3, reversed, 1), Error);
}

TEST(FaultInjectorTest, DisabledConfigPassesThroughUntouched) {
  FaultInjector injector(3, FaultConfig{}, 42);
  const auto delivered = run_rounds(injector, 10);
  ASSERT_EQ(delivered.size(), 60u);  // 6 streams x 10 ticks, in order
  std::size_t i = 0;
  for (Tick t = 0; t < 10; ++t) {
    for (DeviceId tx = 0; tx < 3; ++tx) {
      for (DeviceId rx = 0; rx < 3; ++rx) {
        if (tx == rx) continue;
        EXPECT_EQ(delivered[i].tx, tx);
        EXPECT_EQ(delivered[i].rx, rx);
        EXPECT_EQ(delivered[i].tick, t);
        EXPECT_DOUBLE_EQ(delivered[i].rssi_dbm, report(tx, rx, t).rssi_dbm);
        ++i;
      }
    }
  }
  EXPECT_EQ(injector.counters().dropped, 0u);
  EXPECT_EQ(injector.counters().delivered, 60u);
}

TEST(FaultInjectorTest, SameSeedReproducesIdenticalFaultSequence) {
  FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.delay_probability = 0.2;
  faults.max_delay_ticks = 3;
  faults.duplicate_probability = 0.1;

  FaultInjector a(3, faults, 99);
  FaultInjector b(3, faults, 99);
  const auto da = run_rounds(a, 200);
  const auto db = run_rounds(b, 200);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].tx, db[i].tx);
    EXPECT_EQ(da[i].rx, db[i].rx);
    EXPECT_EQ(da[i].tick, db[i].tick);
  }

  FaultInjector c(3, faults, 100);  // different seed, different faults
  const auto dc = run_rounds(c, 200);
  EXPECT_NE(dc.size(), 0u);
  bool differs = dc.size() != da.size();
  for (std::size_t i = 0; !differs && i < da.size(); ++i) {
    differs = da[i].tick != dc[i].tick || da[i].tx != dc[i].tx ||
              da[i].rx != dc[i].rx;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, DropRateTracksConfiguredProbability) {
  FaultConfig faults;
  faults.drop_probability = 0.25;
  FaultInjector injector(4, faults, 7);
  run_rounds(injector, 2'000);  // 12 streams x 2000 ticks = 24k reports
  const auto& counters = injector.counters();
  const double rate = static_cast<double>(counters.dropped) /
                      static_cast<double>(counters.offered);
  EXPECT_NEAR(rate, 0.25, 0.02);
  EXPECT_EQ(counters.offered,
            counters.dropped + counters.delivered - counters.duplicated);
}

TEST(FaultInjectorTest, DelayIsBoundedAndDeliveredInDueOrder) {
  FaultConfig faults;
  faults.delay_probability = 0.5;
  faults.max_delay_ticks = 4;
  FaultInjector injector(3, faults, 13);
  const auto delivered = run_rounds(injector, 500);

  Tick last_seen_tick = -10;
  std::size_t reordered = 0;
  for (const Measurement& m : delivered) {
    // Bounded delay: a report can never show up more than max_delay
    // rounds after its beacon tick (delivery order gives tick of the
    // round it was drained in via position, checked loosely here).
    if (m.tick < last_seen_tick) ++reordered;
    last_seen_tick = std::max(last_seen_tick, m.tick);
  }
  EXPECT_GT(injector.counters().delayed, 0u);
  EXPECT_GT(reordered, 0u);  // delay produces genuine reordering
  // Nothing is lost: every offered report is eventually delivered.
  EXPECT_EQ(injector.counters().delivered + injector.in_flight(),
            injector.counters().offered);
  EXPECT_LE(injector.in_flight(), 6u * 4u);  // bounded residue
}

TEST(FaultInjectorTest, DuplicatesArriveAsExtraCopies) {
  FaultConfig faults;
  faults.duplicate_probability = 0.5;
  FaultInjector injector(3, faults, 21);
  const auto delivered = run_rounds(injector, 100);
  const auto& counters = injector.counters();
  EXPECT_GT(counters.duplicated, 0u);
  EXPECT_EQ(delivered.size(), counters.offered + counters.duplicated);
}

TEST(FaultInjectorTest, OutageSilencesTheDeviceBothWays) {
  FaultConfig faults;
  faults.outages.push_back({1, 10, 19});
  FaultInjector injector(3, faults, 3);
  const auto delivered = run_rounds(injector, 30);
  for (const Measurement& m : delivered) {
    if (m.tick >= 10 && m.tick <= 19) {
      EXPECT_NE(m.tx, 1);
      EXPECT_NE(m.rx, 1);
    }
  }
  // 4 of 6 streams touch device 1; 10 ticks of outage.
  EXPECT_EQ(injector.counters().outage_dropped, 40u);
  // Before and after the outage the device reports normally.
  std::size_t device1_outside = 0;
  for (const Measurement& m : delivered) {
    if ((m.tx == 1 || m.rx == 1) && (m.tick < 10 || m.tick > 19)) {
      ++device1_outside;
    }
  }
  EXPECT_EQ(device1_outside, 4u * 20u);
}

}  // namespace
}  // namespace fadewich::net
