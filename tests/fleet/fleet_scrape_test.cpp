// Merged fleet observability: one scrape carries per-office labeled
// series, fleet aggregates, and the supervisor block.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig labeled_fleet(std::size_t offices) {
  FleetConfig config;
  config.offices = offices;
  config.shard.system = default_shard_system();
  config.per_office_series = true;
  return config;
}

TEST(FleetScrape, PerOfficeSeriesAndAggregatesShareOneDocument) {
  exec::ThreadPool pool(2);
  Fleet fleet(labeled_fleet(3), &pool);
  fleet.run_week(3000);

  const obs::ScrapeReport report = fleet.scrape();

  for (std::size_t i = 0; i < fleet.offices(); ++i) {
    const std::string name = obs::labeled(
        "fadewich_fleet_office_ticks_total",
        {{"office", std::to_string(i)}});
    const obs::CounterSample* ticks = report.metrics.find_counter(name);
    ASSERT_NE(ticks, nullptr) << name;
    EXPECT_GE(ticks->value, 3000u);
  }

  const obs::HealthBlock* fleet_block = report.find_block("fleet");
  ASSERT_NE(fleet_block, nullptr);
  bool saw_offices = false;
  bool saw_p99 = false;
  for (const auto& [field, value] : fleet_block->fields) {
    if (field == "offices") {
      saw_offices = true;
      EXPECT_EQ(value, 3.0);
    }
    if (field == "deauth_latency_p99_seconds") {
      saw_p99 = true;
      EXPECT_GE(value, 0.0);
    }
  }
  EXPECT_TRUE(saw_offices);
  EXPECT_TRUE(saw_p99);

  // Both render paths must carry the per-office label.
  const std::string prometheus = report.to_prometheus();
  EXPECT_NE(prometheus.find("office=\"2\""), std::string::npos);
  EXPECT_NE(prometheus.find("fadewich_health_fleet_offices"),
            std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("fadewich_fleet_office_ticks_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
}

TEST(FleetScrape, CardinalityCapFallsBackToAggregates) {
  FleetConfig config = labeled_fleet(6);
  config.per_office_series_cap = 4;  // 6 offices > cap: aggregate only
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  fleet.run_week(200);

  const obs::ScrapeReport report = fleet.scrape();
  const std::string name = obs::labeled(
      "fadewich_fleet_office_ticks_total", {{"office", "5"}});
  EXPECT_EQ(report.metrics.find_counter(name), nullptr);
  const obs::CounterSample* ticks =
      report.metrics.find_counter("fadewich_fleet_ticks_total");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value, 6u * 200u);
}

TEST(FleetScrape, SupervisedFleetExportsTheSupervisorBlock) {
  const std::string root =
      (fs::temp_directory_path() / "fadewich_fleet_scrape_sup").string();
  fs::remove_all(root);
  FleetConfig config = labeled_fleet(2);
  config.snapshot_root = root;
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  fleet.run_week(600);

  const obs::ScrapeReport report = fleet.scrape();
  const obs::HealthBlock* sup = report.find_block("supervisor");
  ASSERT_NE(sup, nullptr);
  std::vector<std::string> fields;
  for (const auto& [field, value] : sup->fields) {
    fields.push_back(field);
    if (field == "modules") {
      EXPECT_EQ(value, 2.0);
    }
    if (field == "all_healthy") {
      EXPECT_EQ(value, 1.0);
    }
  }
  const std::vector<std::string> expected = {
      "modules",          "total_restarts",   "all_healthy",
      "office-0_status",  "office-0_restarts", "office-1_status",
      "office-1_restarts"};
  EXPECT_EQ(fields, expected);
  fs::remove_all(root);
}

TEST(FleetScrape, RunStatsReportThroughput) {
  exec::ThreadPool pool(2);
  Fleet fleet(labeled_fleet(2), &pool);
  const RunStats stats = fleet.run_week(500);
  EXPECT_EQ(stats.ticks, 500);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.ticks_per_sec, 0.0);
  EXPECT_GT(stats.offices_per_sec, 0.0);
  EXPECT_GT(fleet.memory_bytes_per_office(), 0.0);
}

}  // namespace
}  // namespace fadewich::fleet
