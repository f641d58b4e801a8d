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
#include "obs/exposition_grammar.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig small_fleet(std::size_t offices) {
  FleetConfig config;
  config.offices = offices;
  config.shard.system = default_shard_system();
  return config;
}

void expect_valid_exposition(const obs::ScrapeReport& report) {
  const std::vector<std::string> errors =
      test::exposition_errors(report.to_prometheus());
  EXPECT_TRUE(errors.empty()) << test::joined(errors);
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
  expect_valid_exposition(report);
}

TEST(FleetScrape, CardinalityCapFallsBackToAggregates) {
  exec::ThreadPool pool(2);
  Fleet fleet(small_fleet(obs::kPerUnitHealthCap + 1), &pool);
  fleet.run_week(64);

  const obs::ScrapeReport report = fleet.scrape();
  expect_valid_exposition(report);
  const std::map<std::string, double> fields = fleet_fields(report);
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
  config.recovery.directory = root;
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
      "office_0_status",  "office_0_restarts", "office_1_status",
      "office_1_restarts"};
  EXPECT_EQ(fields, expected);
  expect_valid_exposition(report);
  // The rings keep their office-<i> directories, so an existing fleet's
  // snapshots still recover.
  EXPECT_TRUE(fs::is_directory(root + "/office-0"));
  EXPECT_TRUE(fs::is_directory(root + "/office-1"));
  fs::remove_all(root);
}

double p99(const Fleet& fleet) {
  return fleet_fields(fleet.scrape()).at("deauth_latency_p99_seconds");
}

/// Each fleet's deauth-latency p99 is its own: a second fleet in the same
/// process reads the same p99 as when it runs alone, and stepping it does
/// not move the first one's.
TEST(FleetScrape, TwoFleetsInOneProcessReadTheirOwnP99) {
  exec::ThreadPool pool(2);
  // Seed 7 puts every deauth of the first fleet in one bucket; the
  // second fleet (default seed) also has one past 10 s, so a shared
  // histogram would move the first fleet's p99.
  FleetConfig one = small_fleet(2);
  one.seed = 7;
  const FleetConfig other = small_fleet(3);

  Fleet first(one, &pool);
  first.run_week(3000);
  const double first_alone = p99(first);
  ASSERT_GT(first.total_deauths(), 0u);

  Fleet second(other, &pool);
  second.run_week(3000);
  ASSERT_GT(second.total_deauths(), 0u);
  ASSERT_NE(p99(second), first_alone);
  EXPECT_EQ(p99(first), first_alone);

  Fleet second_again(other, &pool);
  second_again.run_week(3000);
  EXPECT_EQ(p99(second_again), p99(second));
  EXPECT_EQ(p99(first), first_alone);
  expect_valid_exposition(second.scrape());
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
