// Strict env-knob parsing: set-but-malformed values throw a clear
// fadewich::Error naming the variable, instead of silently falling back
// — a fleet run multiplies the cost of a silently-wrong knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "fadewich/common/env.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::common {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FADEWICH_TEST_KNOB");
    unsetenv("FADEWICH_THREADS");
  }
  void set(const char* value) {
    setenv("FADEWICH_TEST_KNOB", value, /*overwrite=*/1);
  }
};

TEST_F(EnvTest, RawTreatsUnsetAndEmptyAsNotConfigured) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_FALSE(env_raw("FADEWICH_TEST_KNOB").has_value());
  set("");
  EXPECT_FALSE(env_raw("FADEWICH_TEST_KNOB").has_value());
  set("x");
  EXPECT_EQ(env_raw("FADEWICH_TEST_KNOB"), "x");
}

TEST_F(EnvTest, CountParsesPlainPositiveIntegers) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_EQ(env_count("FADEWICH_TEST_KNOB", 7), 7u);
  set("12");
  EXPECT_EQ(env_count("FADEWICH_TEST_KNOB", 7), 12u);
  set("1");
  EXPECT_EQ(env_count("FADEWICH_TEST_KNOB", 7), 1u);
}

TEST_F(EnvTest, CountRejectsMalformedValuesLoudly) {
  for (const char* bad :
       {"0", "-1", "+4", "12x", "x12", "4.5", " 4", "4 ", "1e3",
        "0x10", "99999999999999999999"}) {
    set(bad);
    EXPECT_THROW(env_count("FADEWICH_TEST_KNOB", 7), Error) << bad;
  }
}

TEST_F(EnvTest, CountErrorNamesTheVariableAndValue) {
  set("two");
  try {
    env_count("FADEWICH_TEST_KNOB", 7);
    FAIL() << "expected fadewich::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FADEWICH_TEST_KNOB"), std::string::npos) << what;
    EXPECT_NE(what.find("two"), std::string::npos) << what;
  }
}

TEST_F(EnvTest, CountEnforcesTheCeiling) {
  set("4096");
  EXPECT_EQ(env_count("FADEWICH_TEST_KNOB", 7, 4096), 4096u);
  set("4097");
  EXPECT_THROW(env_count("FADEWICH_TEST_KNOB", 7, 4096), Error);
}

TEST_F(EnvTest, FlagAcceptsTheStrictBooleanSet) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_FALSE(env_flag("FADEWICH_TEST_KNOB").has_value());
  for (const char* on : {"1", "on", "ON", "true", "TRUE", "True"}) {
    set(on);
    EXPECT_EQ(env_flag("FADEWICH_TEST_KNOB"), true) << on;
  }
  for (const char* off : {"0", "off", "OFF", "false", "FALSE"}) {
    set(off);
    EXPECT_EQ(env_flag("FADEWICH_TEST_KNOB"), false) << off;
  }
  for (const char* bad : {"yes", "no", "2", "enabled", "o ff"}) {
    set(bad);
    EXPECT_THROW(env_flag("FADEWICH_TEST_KNOB"), Error) << bad;
  }
}

TEST_F(EnvTest, CountListParsesCommaSeparatedSweeps) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_TRUE(env_count_list("FADEWICH_TEST_KNOB").empty());
  set("10");
  EXPECT_EQ(env_count_list("FADEWICH_TEST_KNOB"),
            (std::vector<std::size_t>{10}));
  set("10,100,1000");
  EXPECT_EQ(env_count_list("FADEWICH_TEST_KNOB"),
            (std::vector<std::size_t>{10, 100, 1000}));
  for (const char* bad : {"10,", ",10", "10,,20", "10,x", "10;20"}) {
    set(bad);
    EXPECT_THROW(env_count_list("FADEWICH_TEST_KNOB"), Error) << bad;
  }
}

TEST_F(EnvTest, PositiveRealParsesPlainDecimals) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_FALSE(env_positive_real("FADEWICH_TEST_KNOB").has_value());
  set("2.5");
  EXPECT_EQ(env_positive_real("FADEWICH_TEST_KNOB"), 2.5);
  set("1");
  EXPECT_EQ(env_positive_real("FADEWICH_TEST_KNOB"), 1.0);
  set("0.25");
  EXPECT_EQ(env_positive_real("FADEWICH_TEST_KNOB"), 0.25);
  set("1e3");
  EXPECT_EQ(env_positive_real("FADEWICH_TEST_KNOB"), 1000.0);
}

TEST_F(EnvTest, PositiveRealRejectsMalformedValues) {
  // The replay pacing knob (FADEWICH_REPLAY_PACE) reads through this:
  // a silently-zero or infinite pace either stalls the replay forever
  // or removes the throttle it was meant to impose.
  for (const char* bad :
       {"0", "-1.5", "fast", "2.5x", "1.5 ", "inf", "-inf", "nan",
        "0x1p3", "1e400", "1e13", "..", "1.2.3"}) {
    set(bad);
    EXPECT_THROW(env_positive_real("FADEWICH_TEST_KNOB"), Error) << bad;
  }
}

TEST_F(EnvTest, U64ParsesTheFullUnsignedRangeIncludingZero) {
  unsetenv("FADEWICH_TEST_KNOB");
  EXPECT_FALSE(env_u64("FADEWICH_TEST_KNOB").has_value());
  set("0");
  EXPECT_EQ(env_u64("FADEWICH_TEST_KNOB"), 0u);
  set("12345");
  EXPECT_EQ(env_u64("FADEWICH_TEST_KNOB"), 12345u);
  set("18446744073709551615");
  EXPECT_EQ(env_u64("FADEWICH_TEST_KNOB"), ~std::uint64_t{0});
}

TEST_F(EnvTest, U64RejectsMalformedValues) {
  // FADEWICH_DEFEND_KEYSEED reads through this: a seed that silently
  // parsed as 0 would make every honest frame fail authentication.
  for (const char* bad : {"abc", "12x", "-1", "+1", " 7", "7 ", "0x10",
                          "1e3", "18446744073709551616"}) {
    set(bad);
    EXPECT_THROW(env_u64("FADEWICH_TEST_KNOB"), Error) << bad;
  }
}

TEST_F(EnvTest, ThreadKnobRejectsMalformedValues) {
  // default_thread_count() routes FADEWICH_THREADS through env_count:
  // a malformed pool size must throw before a fleet run silently uses
  // hardware concurrency.
  setenv("FADEWICH_THREADS", "8", 1);
  EXPECT_EQ(exec::default_thread_count(), 8u);
  for (const char* bad : {"zero", "0", "-2", "8 threads"}) {
    setenv("FADEWICH_THREADS", bad, 1);
    EXPECT_THROW(exec::default_thread_count(), Error) << bad;
  }
  unsetenv("FADEWICH_THREADS");
  EXPECT_GE(exec::default_thread_count(), 1u);
}

}  // namespace
}  // namespace fadewich::common
