// SupervisedSystem: recovery at construction goes through the one ring
// walk (a snapshot from another deployment is rejected, not fatal), and
// faulted steps restore the last checkpoint up to a plain restart bound.
#include "fadewich/persist/supervised_system.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/synthetic_harness.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/net/live_network.hpp"
#include "fadewich/rf/channel.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "obs/exposition_grammar.hpp"

namespace fadewich::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kStreams = 4;
constexpr std::size_t kWorkstations = 2;

class SupervisedSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fadewich_supervised_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  RecoveryConfig config(std::size_t max_restarts = 5) const {
    RecoveryConfig config;
    config.directory = dir_;
    config.backoff_ms = 0.0;
    config.max_restarts = max_restarts;
    return config;
  }

  /// Checkpoint a fresh pipeline of `workstations` stepped `ticks` times
  /// into the ring; returns the snapshot's path.
  std::string checkpoint(std::size_t workstations, int ticks) const {
    core::FadewichSystem system(kStreams, workstations);
    const std::vector<double> row(kStreams, -60.0);
    for (int t = 0; t < ticks; ++t) system.step(row);
    Snapshot snapshot;
    snapshot.system = system.export_state();
    return RecoveryManager(config()).checkpoint(snapshot);
  }

  /// One step whose validity mask does not match the row: the pipeline
  /// throws before touching any state.
  static SupervisedSystem::StepResult faulty_step(SupervisedSystem& live) {
    const std::vector<double> row(kStreams, -60.0);
    const std::vector<std::uint8_t> valid(1, 1);
    return live.step(row, valid);
  }

  static double field(const obs::HealthBlock& block, const std::string& name) {
    for (const auto& [key, value] : block.fields) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "no field " << name << " in block " << block.name;
    return -1.0;
  }

  static void expect_valid_exposition(const obs::ScrapeReport& report) {
    const std::vector<std::string> errors =
        test::exposition_errors(report.to_prometheus());
    EXPECT_TRUE(errors.empty()) << test::joined(errors);
  }

  std::string dir_;
};

TEST_F(SupervisedSystemTest, ValidatesConfig) {
  EXPECT_THROW(SupervisedSystem(kStreams, kWorkstations, {}, config(0)),
               Error);
  RecoveryConfig bad = config();
  bad.checkpoint_period = 0;
  EXPECT_THROW(SupervisedSystem(kStreams, kWorkstations, {}, bad), Error);
}

// The newest snapshot comes from a 3-workstation deployment: it loads but
// does not fit, so recovery rejects it and restores the older one.
TEST_F(SupervisedSystemTest, SkipsAnotherDeploymentsSnapshot) {
  const std::string fits = checkpoint(kWorkstations, 40);
  const std::string misfit = checkpoint(3, 80);

  SupervisedSystem live(kStreams, kWorkstations, {}, config());
  EXPECT_FALSE(live.degraded_start());
  EXPECT_EQ(live.system().tick(), 40);
  const RecoveryReport& report = live.recovery_report();
  EXPECT_EQ(report.recovered_path, fits);
  EXPECT_FALSE(report.cold_start);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].path, misfit);
  EXPECT_NE(report.rejected[0].reason.find("3 sessions"), std::string::npos)
      << report.rejected[0].reason;
}

TEST_F(SupervisedSystemTest, OnlyAMisfitSnapshotMeansADegradedStart) {
  checkpoint(3, 80);
  SupervisedSystem live(kStreams, kWorkstations, {}, config());
  EXPECT_TRUE(live.degraded_start());
  EXPECT_EQ(live.system().tick(), 0);
  EXPECT_TRUE(live.recovery_report().cold_start);
  EXPECT_EQ(live.recovery_report().rejected.size(), 1u);
}

TEST_F(SupervisedSystemTest, FaultedStepRestoresTheLastCheckpoint) {
  SupervisedSystem live(kStreams, kWorkstations, {}, config());
  const std::vector<double> row(kStreams, -60.0);
  for (int t = 0; t < 30; ++t) live.step(row);
  live.checkpoint_now();
  for (int t = 0; t < 10; ++t) live.step(row);
  ASSERT_EQ(live.system().tick(), 40);

  EXPECT_TRUE(faulty_step(live).recovered);
  EXPECT_EQ(live.system().tick(), 30);
  EXPECT_EQ(live.restarts(), 1u);
  EXPECT_FALSE(live.retired());
  EXPECT_FALSE(live.step(row).recovered);  // healthy steps carry on
}

/// Station health is not persisted: a pipeline reborn from a snapshot
/// starts its station block at zero, and a restore after a fault leaves
/// the counts this instance last set.  Each recovery logs its outcome.
TEST_F(SupervisedSystemTest, StationBlockShowsOnlyThisInstancesCounts) {
  const auto station_fields = [](const SupervisedSystem& live) {
    const obs::ScrapeReport report = live.scrape();
    const obs::HealthBlock* block = report.find_block("station");
    EXPECT_NE(block, nullptr);
    return block != nullptr ? block->fields : obs::HealthBlock{}.fields;
  };
  net::StationHealth first_counts;
  first_counts.reports = 1234;
  first_counts.imputed_cells = 3 * kStreams;
  first_counts.imputed_per_stream.assign(kStreams, 3);
  const std::vector<double> row(kStreams, -60.0);
  {
    SupervisedSystem first(kStreams, kWorkstations, {}, config());
    for (int t = 0; t < 20; ++t) first.step(row);
    first.set_station_health(first_counts);
    first.checkpoint_now();
  }

  SupervisedSystem reborn(kStreams, kWorkstations, {}, config());
  ASSERT_FALSE(reborn.degraded_start());
  ASSERT_EQ(reborn.system().tick(), 20);
  net::StationHealth zero;
  zero.imputed_per_stream.assign(kStreams, 0);
  EXPECT_EQ(station_fields(reborn), net::health_block(zero).fields);

  net::StationHealth own;
  own.reports = 77;
  own.imputed_per_stream.assign(kStreams, 1);
  reborn.set_station_health(own);
  for (int t = 0; t < 5; ++t) reborn.step(row);
  ASSERT_TRUE(faulty_step(reborn).recovered);
  EXPECT_EQ(reborn.system().tick(), 20);
  EXPECT_EQ(station_fields(reborn), net::health_block(own).fields);

  // Construction and the restart each logged "recovered from snapshot"
  // with the file, the restart at the failing tick.
  if (!obs::kCompiledIn) return;  // events compiled out
  std::vector<obs::Event> recovered;
  for (const obs::Event& e : reborn.scrape().events) {
    if (e.message == "recovered from snapshot") recovered.push_back(e);
  }
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].tick, 0);
  EXPECT_EQ(recovered[1].tick, 26);
  ASSERT_EQ(recovered[1].fields.size(), 1u);
  EXPECT_EQ(recovered[1].fields[0].first, "path");
  EXPECT_EQ(recovered[1].fields[0].second,
            reborn.recovery_report().recovered_path);
}

// The checkpoint cadence is keyed to the pipeline's tick, not to step()
// calls: a pipeline reborn from an off-period snapshot checkpoints on the
// same ticks as one that never stopped.
TEST_F(SupervisedSystemTest, RebornPipelineKeepsTheCheckpointTicks) {
  RecoveryConfig periodic = config();
  periodic.checkpoint_period = 600;
  const std::vector<double> row(kStreams, -60.0);
  {
    SupervisedSystem live(kStreams, kWorkstations, {}, periodic);
    for (int t = 0; t < 250; ++t) live.step(row);
    live.checkpoint_now();
  }
  SupervisedSystem reborn(kStreams, kWorkstations, {}, periodic);
  ASSERT_EQ(reborn.system().tick(), 250);
  for (int t = 250; t < 1300; ++t) reborn.step(row);
  EXPECT_EQ(reborn.checkpoints_written(), 2u);
  std::vector<std::uint64_t> ticks;
  for (const std::string& path : RecoveryManager(periodic).ring()) {
    ticks.push_back(load_snapshot(path).system.tick);
  }
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{250, 600, 1200}));
}

TEST_F(SupervisedSystemTest, RestartsAreBoundedThenRetired) {
  SupervisedSystem live(kStreams, kWorkstations, {}, config(2));
  live.checkpoint_now();
  EXPECT_TRUE(faulty_step(live).recovered);
  EXPECT_TRUE(faulty_step(live).recovered);
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(faulty_step(live).recovered);  // budget spent
  }
  EXPECT_EQ(live.restarts(), 2u);
  EXPECT_TRUE(live.retired());
}

TEST_F(SupervisedSystemTest, FailedRestartRetiresThePipeline) {
  SupervisedSystem live(kStreams, kWorkstations, {}, config());
  ASSERT_TRUE(live.degraded_start());  // empty ring: nothing to restore
  EXPECT_FALSE(faulty_step(live).recovered);
  EXPECT_EQ(live.restarts(), 1u);
  EXPECT_TRUE(live.retired());
  // A retired pipeline is left alone afterwards.
  EXPECT_FALSE(faulty_step(live).recovered);
  EXPECT_EQ(live.restarts(), 1u);
}

TEST_F(SupervisedSystemTest, ScrapeCarriesTheRestartBlock) {
  SupervisedSystem live(kStreams, kWorkstations, {}, config(1));
  live.checkpoint_now();
  faulty_step(live);
  const obs::ScrapeReport healthy = live.scrape();
  const obs::HealthBlock* block = healthy.find_block("supervisor");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(field(*block, "modules"), 1.0);
  EXPECT_EQ(field(*block, "total_restarts"), 1.0);
  EXPECT_EQ(field(*block, "all_healthy"), 1.0);
  EXPECT_EQ(field(*block, "pipeline_status"), 0.0);
  EXPECT_EQ(field(*block, "pipeline_restarts"), 1.0);
  EXPECT_EQ(block->fields.size(), 5u);
  expect_valid_exposition(healthy);

  faulty_step(live);
  const obs::ScrapeReport retired = live.scrape();
  block = retired.find_block("supervisor");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(field(*block, "all_healthy"), 0.0);
  EXPECT_EQ(field(*block, "pipeline_status"), 2.0);
  expect_valid_exposition(retired);
}

/// The station and fault blocks are the scrape's only count of those
/// events: they must carry the network's own structs, field by field.
TEST_F(SupervisedSystemTest, ScrapeCarriesTheNetworksOwnCounters) {
  const rf::FloorPlan plan = rf::paper_office();
  net::FaultConfig faults;
  faults.drop_probability = 0.05;
  faults.delay_probability = 0.05;
  faults.max_delay_ticks = 3;
  faults.duplicate_probability = 0.02;
  net::StationConfig station;
  station.deadline_ticks = 3;
  net::LiveSensorNetwork network(plan.sensors, rf::ChannelConfig{}, 5.0,
                                 42, faults, station);
  SupervisedSystem live(network.stream_count(), plan.workstation_count(),
                        {}, config());
  for (int t = 0; t < 300; ++t) {
    for (const net::StationRow& row : network.round({})) {
      live.step(row.values, row.valid);
    }
  }
  live.set_station_health(network.station().health());
  const net::FaultInjector::Counters counters =
      network.injector()->counters();
  const obs::ScrapeReport report = live.scrape(&counters);

  const obs::HealthBlock* station_block = report.find_block("station");
  const obs::HealthBlock* fault_block = report.find_block("faults");
  ASSERT_NE(station_block, nullptr);
  ASSERT_NE(fault_block, nullptr);
  EXPECT_EQ(station_block->fields,
            net::health_block(network.station().health()).fields);
  EXPECT_EQ(fault_block->fields, net::health_block(counters).fields);
  EXPECT_GT(field(*fault_block, "dropped"), 0.0);
  EXPECT_GT(field(*station_block, "incomplete_releases"), 0.0);
  EXPECT_EQ(field(*station_block, "reports"),
            field(*fault_block, "delivered"));
  expect_valid_exposition(report);
}

/// Every count in a scrape belongs to its instance: stepping one system
/// leaves a second one built in the same process at zero.
TEST_F(SupervisedSystemTest, TwoSystemsInOneProcessScrapeIndependently) {
  RecoveryConfig idle_config = config();
  idle_config.directory = dir_ + "_idle";
  fs::remove_all(idle_config.directory);
  const core::SystemConfig system = core::testing::harness_config();
  SupervisedSystem busy(kStreams, kWorkstations, system, config());
  SupervisedSystem idle(kStreams, kWorkstations, system, idle_config);

  core::testing::Harness harness(busy.system());
  harness.train();
  ASSERT_TRUE(busy.finish_training());
  harness.advance(8.0, {1}, core::testing::Harness::streams_of(0));

  const obs::ScrapeReport busy_report = busy.scrape();
  const obs::ScrapeReport idle_report = idle.scrape();
  expect_valid_exposition(busy_report);
  expect_valid_exposition(idle_report);

  const obs::HealthBlock* controller = busy_report.find_block("controller");
  const obs::HealthBlock* md = busy_report.find_block("md");
  const obs::HealthBlock* re = busy_report.find_block("re");
  ASSERT_NE(controller, nullptr);
  ASSERT_NE(md, nullptr);
  ASSERT_NE(re, nullptr);
  const double deauths = field(*controller, "rule1_deauths");
  EXPECT_GT(deauths, 0.0);
  EXPECT_GT(field(*md, "windows_closed"), 0.0);
  EXPECT_GT(field(*re, "classified_label_1"), 0.0);
  const obs::HistogramSample* latency = busy_report.metrics.find_histogram(
      "fadewich_ctl_deauth_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(static_cast<double>(latency->count), deauths);

  for (const char* name : {"md", "controller", "re"}) {
    const obs::HealthBlock* block = idle_report.find_block(name);
    ASSERT_NE(block, nullptr) << name;
    for (const auto& [key, value] : block->fields) {
      EXPECT_EQ(value, 0.0) << name << "." << key;
    }
  }
  const obs::HistogramSample* idle_latency =
      idle_report.metrics.find_histogram(
          "fadewich_ctl_deauth_latency_seconds");
  ASSERT_NE(idle_latency, nullptr);
  EXPECT_EQ(idle_latency->count, 0u);
  fs::remove_all(idle_config.directory);
}

std::string field_of(const obs::Event& event, const std::string& key) {
  for (const auto& [name, value] : event.fields) {
    if (name == key) return value;
  }
  return "";
}

/// Every record in a scrape belongs to its instance: a cold start and a
/// recovery past a corrupt file, made by two systems in one process,
/// each show up only in their own system's events.
TEST_F(SupervisedSystemTest, TwoSystemsInOneProcessKeepTheirOwnEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "events compiled out";
  RecoveryConfig cold_config = config();
  cold_config.directory = dir_ + "_cold";
  fs::remove_all(cold_config.directory);
  const std::string good = checkpoint(kWorkstations, 5);
  const std::string corrupt = checkpoint(kWorkstations, 9);
  fs::resize_file(corrupt, fs::file_size(corrupt) / 2);

  SupervisedSystem cold(kStreams, kWorkstations, {}, cold_config);
  SupervisedSystem warm(kStreams, kWorkstations, {}, config());
  ASSERT_TRUE(cold.degraded_start());
  ASSERT_FALSE(warm.degraded_start());

  const std::vector<obs::Event> cold_events = cold.scrape().events;
  ASSERT_EQ(cold_events.size(), 1u);
  EXPECT_EQ(cold_events[0].message, "cold start: no usable snapshot");
  EXPECT_EQ(cold_events[0].severity, obs::Severity::kWarn);

  // Rejections first, then the outcome.
  const std::vector<obs::Event> warm_events = warm.scrape().events;
  ASSERT_EQ(warm_events.size(), 2u);
  EXPECT_EQ(warm_events[0].message, "snapshot rejected during recovery");
  EXPECT_EQ(field_of(warm_events[0], "path"), corrupt);
  EXPECT_FALSE(field_of(warm_events[0], "reason").empty());
  EXPECT_EQ(warm_events[1].message, "recovered from snapshot");
  EXPECT_EQ(field_of(warm_events[1], "path"), good);

  // A failed step is recorded by the system that failed, with the
  // restart's own rejection and outcome ahead of it, and reaches a sink
  // attached to that system's log.
  std::ostringstream sink;
  warm.events().set_sink(&sink);
  faulty_step(warm);
  warm.events().set_sink(nullptr);
  const std::vector<obs::Event> after = warm.scrape().events;
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after[2].message, "snapshot rejected during recovery");
  EXPECT_EQ(after[3].message, "recovered from snapshot");
  EXPECT_EQ(field_of(after[3], "path"), good);
  EXPECT_EQ(after[4].message, "pipeline step failed; restored");
  EXPECT_EQ(after[4].severity, obs::Severity::kError);
  EXPECT_EQ(sink.str(), obs::to_json_line(after[2]) + "\n" +
                            obs::to_json_line(after[3]) + "\n" +
                            obs::to_json_line(after[4]) + "\n");
  EXPECT_EQ(cold.scrape().events.size(), 1u);
  fs::remove_all(cold_config.directory);
}

}  // namespace
}  // namespace fadewich::persist
