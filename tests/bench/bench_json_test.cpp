// JsonReport: the one writer behind every BENCH_*.json report — nesting
// and commas, string escaping, number formatting, the stamp, and the
// exit-1 contract for a report that cannot be written.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "fadewich/common/error.hpp"

namespace fadewich::bench {
namespace {

class JsonReportTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FADEWICH_BENCH_FAST");
    unsetenv("FADEWICH_GIT_SHA");
    std::filesystem::remove(path_);
  }

  std::string document() const {
    std::stringstream text;
    text << std::ifstream(path_).rdbuf();
    return text.str();
  }

  /// What `body` writes after the stamp's last line (`"native": ...`).
  std::string render(const std::function<void(JsonReport&)>& body) {
    JsonReport report(path_, "test-schema/1", 3);
    body(report);
    report.close();
    const std::string doc = document();
    return doc.substr(doc.find('\n', doc.find("\"native\"")) + 1);
  }

  const std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("bench_json_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();
};

TEST_F(JsonReportTest, ObjectInsideArray) {
  EXPECT_EQ(render([](JsonReport& r) {
              r.begin_array("rows");
              r.begin_object().field("name", "a").field("n", 1).end();
              r.begin_object().field("name", "b").end();
              r.end();
            }),
            "  \"rows\": [\n"
            "    {\n"
            "      \"name\": \"a\",\n"
            "      \"n\": 1\n"
            "    },\n"
            "    {\n"
            "      \"name\": \"b\"\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST_F(JsonReportTest, EmptyArraysAndObjects) {
  EXPECT_EQ(render([](JsonReport& r) {
              r.begin_array("list").end().begin_object("map").end();
              r.begin_array("nested").begin_object().end().end();
            }),
            "  \"list\": [],\n"
            "  \"map\": {},\n"
            "  \"nested\": [\n"
            "    {}\n"
            "  ]\n"
            "}\n");
}

TEST_F(JsonReportTest, StringsAreEscaped) {
  EXPECT_EQ(render([](JsonReport& r) {
              r.field("s", std::string("q\"b\\n\nc\x01"));
              r.field("k\"ey", "plain");
            }),
            "  \"s\": \"q\\\"b\\\\n\\nc\\u0001\",\n"
            "  \"k\\\"ey\": \"plain\"\n"
            "}\n");
}

TEST_F(JsonReportTest, IntegersAndDoublesFormatDifferently) {
  EXPECT_EQ(render([](JsonReport& r) {
              r.field("i64", std::int64_t{-42})
                  .field("u64", std::numeric_limits<std::uint64_t>::max())
                  .field("whole", 100.0)
                  .field("third", 1.0 / 3.0)
                  .field("big", 12345678.9)
                  .field("tiny", 1e-7)
                  .field("nan", std::nan(""))
                  .field("inf", std::numeric_limits<double>::infinity())
                  .field("flag", true);
            }),
            "  \"i64\": -42,\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"whole\": 100,\n"
            "  \"third\": 0.333333,\n"
            "  \"big\": 1.23457e+07,\n"
            "  \"tiny\": 1e-07,\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"flag\": true\n"
            "}\n");
}

TEST_F(JsonReportTest, StampCarriesSevenKeysInOrder) {
  setenv("FADEWICH_GIT_SHA", "abc1234", 1);
  setenv("FADEWICH_BENCH_FAST", "1", 1);
  JsonReport(path_, "test-schema/1", 3).close();
  EXPECT_EQ(document(),
            "{\n  \"schema\": \"test-schema/1\",\n"
            "  \"git_sha\": \"abc1234\",\n"
            "  \"threads\": 3,\n"
            "  \"hardware_concurrency\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ",\n  \"fast_mode\": true,\n  \"simd_isa\": \"" +
                simd::isa_name(simd::active_isa()) + "\",\n" +
#ifdef FADEWICH_NATIVE_BUILD
                "  \"native\": true\n}\n");
#else
                "  \"native\": false\n}\n");
#endif
}

TEST_F(JsonReportTest, FastModeIsAStrictFlag) {
  unsetenv("FADEWICH_BENCH_FAST");
  EXPECT_FALSE(fast_mode());
  setenv("FADEWICH_BENCH_FAST", "true", 1);
  EXPECT_TRUE(fast_mode());
  setenv("FADEWICH_BENCH_FAST", "0", 1);
  EXPECT_FALSE(fast_mode());
  setenv("FADEWICH_BENCH_FAST", "yes", 1);
  EXPECT_THROW(fast_mode(), Error);
}

TEST_F(JsonReportTest, UnbalancedNestingThrows) {
  JsonReport report(path_, "test-schema/1", 1);
  EXPECT_THROW(report.end(), std::logic_error);
  report.begin_object("open");
  EXPECT_THROW(report.close(), std::logic_error);
}

TEST_F(JsonReportTest, UnwritablePathExitsNonzeroNamingIt) {
  EXPECT_EXIT(JsonReport("/nonexistent/dir/x.json", "s/1", 1),
              ::testing::ExitedWithCode(1), "/nonexistent/dir/x.json");
  EXPECT_EXIT(write_file("/nonexistent/dir/a.prom", "x"),
              ::testing::ExitedWithCode(1), "/nonexistent/dir/a.prom");
  // Opening /dev/full succeeds; the write fails when close() flushes.
  EXPECT_EXIT(JsonReport("/dev/full", "s/1", 1).close(),
              ::testing::ExitedWithCode(1), "cannot write /dev/full");
}

}  // namespace
}  // namespace fadewich::bench
