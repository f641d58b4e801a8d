// Merged fleet observability: one scrape carries the fleet block, with
// per-office deauth counts for fleets under the unit cap, and the
// supervisor block.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig small_fleet(std::size_t offices) {
  FleetConfig config;
  config.offices = offices;
  config.shard.system = default_shard_system();
  return config;
}

std::map<std::string, double> fleet_fields(const obs::ScrapeReport& report) {
  const obs::HealthBlock* block = report.find_block("fleet");
  EXPECT_NE(block, nullptr);
  if (block == nullptr) return {};
  return {block->fields.begin(), block->fields.end()};
}

TEST(FleetScrape, PerOfficeSeriesAndAggregatesShareOneDocument) {
  exec::ThreadPool pool(2);
  Fleet fleet(small_fleet(3), &pool);
  fleet.run_week(3000);
  ASSERT_GT(fleet.total_deauths(), 0u);

  const obs::ScrapeReport report = fleet.scrape();
  const std::map<std::string, double> fields = fleet_fields(report);
  EXPECT_EQ(fields.at("offices"), 3.0);
  EXPECT_GE(fields.at("deauth_latency_p99_seconds"), 0.0);
  EXPECT_EQ(fields.at("deauths"), static_cast<double>(fleet.total_deauths()));
  for (std::size_t i = 0; i < fleet.offices(); ++i) {
    const std::string office = "office_" + std::to_string(i);
    EXPECT_EQ(fields.at(office + "_deauths"),
              static_cast<double>(fleet.shard(i).deauths()));
    EXPECT_EQ(fields.at(office + "_spurious_deauths"),
              static_cast<double>(fleet.shard(i).spurious_deauths()));
  }

  // Both render paths carry the per-office entries.
  const std::string prometheus = report.to_prometheus();
  EXPECT_NE(prometheus.find("fadewich_health_fleet_office_2_deauths "),
            std::string::npos);
  EXPECT_NE(prometheus.find("fadewich_health_fleet_offices"),
            std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"office_2_spurious_deauths\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
}

TEST(FleetScrape, CardinalityCapFallsBackToAggregates) {
  exec::ThreadPool pool(2);
  Fleet fleet(small_fleet(obs::kPerUnitHealthCap + 1), &pool);
  fleet.run_week(64);

  const std::map<std::string, double> fields = fleet_fields(fleet.scrape());
  EXPECT_EQ(fields.at("offices"),
            static_cast<double>(obs::kPerUnitHealthCap + 1));
  EXPECT_EQ(fields.at("deauths"), static_cast<double>(fleet.total_deauths()));
  for (const auto& [field, value] : fields) {
    EXPECT_FALSE(field.starts_with("office_")) << field;
  }
}

TEST(FleetScrape, SupervisedFleetExportsTheSupervisorBlock) {
  const std::string root =
      (fs::temp_directory_path() / "fadewich_fleet_scrape_sup").string();
  fs::remove_all(root);
  FleetConfig config = small_fleet(2);
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
  Fleet fleet(small_fleet(2), &pool);
  const RunStats stats = fleet.run_week(500);
  EXPECT_EQ(stats.ticks, 500);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.ticks_per_sec, 0.0);
  EXPECT_GT(stats.offices_per_sec, 0.0);
  EXPECT_GT(fleet.memory_bytes_per_office(), 0.0);
}

}  // namespace
}  // namespace fadewich::fleet
