// Exporters: Prometheus text format (histogram buckets, one header per
// family), the JSON snapshot (percentiles inline), the unified
// ScrapeReport document with health blocks folded in, and the
// exposition-grammar checker the other suites run on their scrapes.
#include <gtest/gtest.h>

#include <string>

#include "fadewich/obs/export.hpp"
#include "fadewich/obs/toggle.hpp"
#include "obs/exposition_grammar.hpp"

namespace fadewich::obs {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  MetricsRegistry registry_;
};

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST_F(ObsExportTest, PrometheusHistogramBucketsAreCumulative) {
  Histogram histogram =
      registry_.histogram("t_lat_seconds", "latency", {0.1, 0.5});
  histogram.observe(0.05);
  histogram.observe(0.2);
  histogram.observe(0.3);
  histogram.observe(2.0);

  const std::string text = to_prometheus(registry_.snapshot());
  EXPECT_TRUE(contains(text, "# TYPE t_lat_seconds histogram\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"0.1\"} 1\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"0.5\"} 3\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_count 4\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_sum 2.55\n"));
  EXPECT_TRUE(test::exposition_errors(text).empty())
      << test::joined(test::exposition_errors(text));
}

TEST_F(ObsExportTest, JsonSnapshotCarriesPercentiles) {
  Histogram histogram =
      registry_.histogram("t_json_seconds", "", {10.0, 20.0});
  for (int i = 0; i < 100; ++i) histogram.observe(15.0);

  const std::string json = to_json(registry_.snapshot());
  EXPECT_TRUE(contains(json, "{\"histograms\":{\"t_json_seconds\":"));
  EXPECT_TRUE(contains(json, "\"count\":100"));
  EXPECT_TRUE(contains(json, "\"p50\":15"));
  EXPECT_TRUE(contains(json, "\"p95\":19.5"));
  EXPECT_TRUE(contains(json, "\"p99\":19.9"));
  EXPECT_TRUE(contains(json, "{\"le\":10,\"count\":0}"));
  EXPECT_TRUE(contains(json, "{\"le\":20,\"count\":100}"));
  EXPECT_TRUE(contains(json, "{\"le\":\"+Inf\",\"count\":100}"));
}

TEST_F(ObsExportTest, ScrapeReportFoldsHealthAndEvents) {
  registry_.histogram("t_scrape_seconds").observe(0.5);
  EventLog events;
  events.warn("net", "sensor offline", 40, {{"sensor", "1"}});

  ScrapeReport report;
  report.metrics = registry_.snapshot();
  report.events = events.recent();
  HealthBlock station;
  station.name = "station";
  station.add("reports", 120.0);
  station.add("duplicates", 4.0);
  report.health.push_back(station);
  HealthBlock supervisor;
  supervisor.name = "supervisor";
  supervisor.add("all_healthy", 1.0);
  report.health.push_back(supervisor);

  ASSERT_NE(report.find_block("station"), nullptr);
  ASSERT_NE(report.find_block("supervisor"), nullptr);
  EXPECT_EQ(report.find_block("missing"), nullptr);
  EXPECT_EQ(report.find_block("station")->fields[0].second, 120.0);

  const std::string prom = report.to_prometheus();
  EXPECT_TRUE(contains(prom, "t_scrape_seconds_count 1\n"));
  EXPECT_TRUE(test::exposition_errors(prom).empty())
      << test::joined(test::exposition_errors(prom));
  EXPECT_TRUE(contains(prom, "fadewich_health_station_reports 120\n"));
  EXPECT_TRUE(contains(prom, "fadewich_health_station_duplicates 4\n"));
  EXPECT_TRUE(contains(prom, "fadewich_health_supervisor_all_healthy 1\n"));

  const std::string json = report.to_json();
  EXPECT_TRUE(contains(json, "\"metrics\":{"));
  EXPECT_TRUE(contains(
      json, "\"station\":{\"reports\":120,\"duplicates\":4}"));
  EXPECT_TRUE(contains(json, "\"supervisor\":{\"all_healthy\":1}"));
  // The one warn event rides along, and the events array closes the
  // document.
  EXPECT_TRUE(contains(json, "\"message\":\"sensor offline\""));
  EXPECT_TRUE(contains(json, "\"sensor\":\"1\""));
  EXPECT_TRUE(json.ends_with("\"sensor\":\"1\"}]}"));
}

TEST_F(ObsExportTest, ScrapeWithoutEventsIsMetricsOnly) {
  registry_.histogram("t_only_seconds", "", {1.0}).observe(2.0);
  ScrapeReport report;
  report.metrics = registry_.snapshot();
  EXPECT_TRUE(report.events.empty());
  EXPECT_TRUE(report.health.empty());
  EXPECT_TRUE(
      contains(report.to_prometheus(), "t_only_seconds_bucket{le=\"+Inf\"} 1\n"));
}

TEST(ExpositionGrammar, FlagsEachRule) {
  const std::string good =
      "# HELP a_seconds help\n"
      "# TYPE a_seconds histogram\n"
      "a_seconds_bucket{le=\"0.5\"} 1\n"
      "a_seconds_bucket{le=\"+Inf\"} 2\n"
      "a_seconds_sum 3.5\n"
      "a_seconds_count 2\n"
      "# TYPE fadewich_health_supervisor_office_0_status gauge\n"
      "fadewich_health_supervisor_office_0_status 0\n";
  EXPECT_TRUE(test::exposition_errors(good).empty())
      << test::joined(test::exposition_errors(good));

  // A '-' is not legal in a metric name.
  EXPECT_EQ(test::exposition_errors(
                "# TYPE fadewich_health_supervisor_office-0_status gauge\n"
                "fadewich_health_supervisor_office-0_status 0\n")
                .size(),
            2u);
  // Two TYPE lines for one family.
  EXPECT_EQ(test::exposition_errors("# TYPE x gauge\nx 1\n# TYPE x gauge\n")
                .size(),
            1u);
  // A sample ahead of its TYPE, and one with no TYPE at all.
  EXPECT_EQ(test::exposition_errors("x 1\n# TYPE x gauge\ny_sum 1\n").size(),
            2u);
  // Malformed label sets and values.
  EXPECT_EQ(test::exposition_errors("# TYPE h histogram\n"
                                    "h_bucket{1e=\"1\"} 1\n"
                                    "h_bucket{le=\"a\\q\"} 1\n"
                                    "h_bucket{le=\"1\" 1\n"
                                    "h_count one\n")
                .size(),
            4u);
}

}  // namespace
}  // namespace fadewich::obs
