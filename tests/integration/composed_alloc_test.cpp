// The composed path's allocation budget: once an office deployment is
// warm, a tick of clean signed wire bytes through net::FrameDecoder,
// defend::Defender::filter_frame, the CentralStation RowSink form and
// FadewichSystem::step touches the heap on no tick — the ticks that
// classify and deauthenticate included.
//
// A simulated office (the paper's 9 sensors, 3 workstations) records two
// days: day 0 trains the pipeline through the composed path, and day 1
// runs online.  The first half of day 1 warms every retained buffer; the
// second half is counted.  Frames are encoded between counted chunks,
// so only the deployed path is counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/counting_allocator.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/core/system.hpp"
#include "fadewich/defend/defender.hpp"
#include "fadewich/eval/crash_replay.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/rf/pathloss.hpp"
#include "fadewich/sim/schedule.hpp"
#include "fadewich/sim/simulator.hpp"

namespace fadewich {
namespace {

constexpr std::size_t kWorkstations = 3;
constexpr std::uint64_t kSeed = 2017;
constexpr Tick kChunkTicks = 1024;

/// Two office days in which users walk in after calibration and take
/// frequent breaks, so one day auto-labels enough windows to train RE
/// and the online day holds many leaves.
sim::Recording simulate_office(const rf::FloorPlan& plan) {
  sim::DayScheduleConfig day;
  day.day_length = 3.0 * 3600.0;
  day.start_seated = false;
  day.min_breaks = 8;
  day.max_breaks = 10;
  day.break_min = 2.0 * 60.0;
  day.break_max = 10.0 * 60.0;
  Rng rng(kSeed);
  const sim::WeekSchedule week =
      sim::generate_week_schedule(day, kWorkstations, 2, rng);
  sim::SimulationConfig config;
  config.seed = kSeed + 1;
  return sim::simulate_week(plan, week, config);
}

TEST(ComposedAllocTest, WarmOfficeDayIsAllocationFree) {
  const rf::FloorPlan plan = rf::paper_office();
  const sim::Recording recording = simulate_office(plan);
  const std::vector<eval::DerivedInput> inputs =
      eval::derive_inputs(recording, kWorkstations);
  const std::size_t m = recording.sensor_count();
  const Tick day_ticks = recording.tick_count() / 2;

  const defend::DefendConfig defend_config;
  std::vector<net::WireKey> keys;
  for (std::size_t d = 0; d < m; ++d) {
    keys.push_back(net::derive_station_key(defend_config.key_seed,
                                           static_cast<std::uint16_t>(d)));
  }
  // Station stream s (tx-major order) -> recorded int8 column.
  std::vector<const std::int8_t*> column;
  for (std::size_t tx = 0; tx < m; ++tx) {
    for (std::size_t rx = 0; rx < m; ++rx) {
      if (rx != tx) {
        column.push_back(
            recording.stream(recording.stream_index(tx, rx)).data());
      }
    }
  }

  net::FrameDecoder decoder;
  defend::Defender defender(m, defend_config, plan.sensors,
                            rf::PathLossConfig{}, /*tx_power_dbm=*/0.0);
  net::CentralStation station(m);
  core::SystemConfig config;
  config.tick_hz = 5.0;
  config.md = eval::default_md_config();
  core::FadewichSystem system(recording.stream_count(), kWorkstations,
                              config);

  std::size_t next_input = 0;
  std::uint64_t classifications = 0;
  std::uint64_t deauths = 0;
  const net::CentralStation::RowSink sink = [&](const net::StationRow& row) {
    const Seconds now = system.rate().to_seconds(row.tick);
    for (; next_input < inputs.size() && inputs[next_input].time <= now;
         ++next_input) {
      system.record_input(inputs[next_input].workstation,
                          inputs[next_input].time);
    }
    const core::FadewichSystem::StepResult result =
        row.complete() ? system.step(row.values)
                       : system.step(row.values, row.valid);
    classifications += result.classification.has_value() ? 1 : 0;
    for (const core::Action& action : result.actions) {
      deauths += action.type == core::ActionType::kDeauthenticate ? 1 : 0;
    }
  };

  // One signed frame per transmitter per tick, encoded outside the
  // counted region.
  std::vector<std::uint64_t> seq(m, 0);
  std::vector<net::WireReport> reports;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> tick_end;
  const auto encode = [&](Tick from, Tick to) {
    bytes.clear();
    tick_end.clear();
    for (Tick t = from; t < to; ++t) {
      for (std::size_t tx = 0; tx < m; ++tx) {
        reports.clear();
        for (std::size_t rx = 0; rx < m; ++rx) {
          if (rx == tx) continue;
          const std::size_t s = tx * (m - 1) + (rx < tx ? rx : rx - 1);
          reports.push_back({static_cast<net::DeviceId>(rx),
                             column[s][static_cast<std::size_t>(t)]});
        }
        const auto id = static_cast<net::DeviceId>(tx);
        const net::FrameHeader header{id, seq[tx]++, t, id};
        net::encode_frame(header, reports, bytes, &keys[tx]);
      }
      tick_end.push_back(bytes.size());
    }
  };
  std::vector<net::Measurement> batch;
  const auto process = [&](Tick from) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < tick_end.size(); ++i) {
      decoder.feed(std::span(bytes.data() + begin, tick_end[i] - begin));
      begin = tick_end[i];
      const Tick t = from + static_cast<Tick>(i);
      while (const net::DecodedFrame* frame = decoder.next()) {
        defender.filter_frame(*frame, t, batch);
      }
      station.ingest(batch, sink);
      batch.clear();
    }
  };

  const Tick warm_until = day_ticks + day_ticks / 2;
  const Tick end = recording.tick_count();
  std::uint64_t allocs = 0;
  std::uint64_t counted_classifications = 0;
  std::uint64_t counted_deauths = 0;
  for (Tick from = 0; from < end;) {
    if (from == day_ticks) {
      ASSERT_TRUE(system.finish_training());
    }
    const Tick to =
        std::min(from + kChunkTicks, from < day_ticks ? day_ticks : end);
    encode(from, to);
    if (from < warm_until) {
      process(from);
    } else {
      const std::uint64_t classified_before = classifications;
      const std::uint64_t deauths_before = deauths;
      {
        test::CountingScope scope;
        process(from);
        allocs += scope.count();
      }
      counted_classifications += classifications - classified_before;
      counted_deauths += deauths - deauths_before;
    }
    from = to;
  }
  EXPECT_EQ(system.tick(), end);
  EXPECT_EQ(defender.counters().frames_rejected(), 0u);
  EXPECT_EQ(station.health().incomplete_releases, 0u);
  EXPECT_GE(counted_classifications, 1u);
  EXPECT_GE(counted_deauths, 1u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace fadewich
