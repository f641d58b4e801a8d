// EventLog: bounded-ring eviction accounting, the JSON-lines rendering
// (escaping included), the immediate sink path and the runtime toggle.
#include <gtest/gtest.h>

#include <sstream>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {
namespace {

class ObsEventLogTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
};

TEST_F(ObsEventLogTest, RingEvictsOldestAndCountsEvictions) {
  EventLog log(EventLog::Config{4});
  for (int i = 0; i < 6; ++i) {
    log.info("test", "message " + std::to_string(i));
  }
  EXPECT_EQ(log.accepted(), 6u);
  EXPECT_EQ(log.evicted(), 2u);

  const std::vector<Event> recent = log.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first; the two earliest sequence numbers were evicted.
  EXPECT_EQ(recent.front().seq, 2u);
  EXPECT_EQ(recent.front().message, "message 2");
  EXPECT_EQ(recent.back().seq, 5u);
  EXPECT_EQ(recent.back().message, "message 5");
}

TEST_F(ObsEventLogTest, JsonLineFormatAndEscaping) {
  Event event;
  event.seq = 7;
  event.severity = Severity::kWarn;
  event.tick = 42;
  event.component = "persist";
  event.message = "path \"a\\b\"\nnext";
  event.fields = {{"reason", "bad\tcrc"}};
  EXPECT_EQ(to_json_line(event),
            "{\"seq\":7,\"severity\":\"warn\",\"tick\":42,"
            "\"component\":\"persist\","
            "\"message\":\"path \\\"a\\\\b\\\"\\nnext\","
            "\"reason\":\"bad\\tcrc\"}");
}

TEST_F(ObsEventLogTest, SinkReceivesEveryAcceptedEventAsOneLine) {
  EventLog log(EventLog::Config{2});
  std::ostringstream sink;
  log.set_sink(&sink);
  log.info("net", "first", 1);
  log.warn("net", "second", 2, {{"k", "v"}});
  log.info("net", "third", 3);          // evicts "first" from the ring...
  log.set_sink(nullptr);
  log.error("net", "after detach");     // ...and no sink line after detach

  std::istringstream lines(sink.str());
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 3u);  // eviction does not remove sink lines
  EXPECT_NE(got[0].find("\"message\":\"first\""), std::string::npos);
  EXPECT_NE(got[1].find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(got[2].find("\"message\":\"third\""), std::string::npos);
  EXPECT_EQ(log.recent().size(), 2u);
  EXPECT_EQ(log.accepted(), 4u);
}

TEST_F(ObsEventLogTest, RuntimeToggleDropsEventsEntirely) {
  EventLog log;
  set_enabled(false);
  log.error("test", "invisible");
  set_enabled(true);
  EXPECT_EQ(log.accepted(), 0u);
  EXPECT_TRUE(log.recent().empty());
}

TEST_F(ObsEventLogTest, ZeroCapacityThrows) {
  EXPECT_THROW(EventLog(EventLog::Config{0}), Error);
}

}  // namespace
}  // namespace fadewich::obs
