#include "fadewich/core/stream_history.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::core {
namespace {

TEST(StreamHistoryTest, RejectsInvalidConstruction) {
  EXPECT_THROW(StreamHistory(0, 4), ContractViolation);
  EXPECT_THROW(StreamHistory(2, 0), ContractViolation);
}

TEST(StreamHistoryTest, PushAndReadBack) {
  StreamHistory history(2, 8);
  history.push(std::vector<double>{-50.0, -60.0});
  history.push(std::vector<double>{-51.0, -61.0});
  EXPECT_EQ(history.ticks_stored(), 2);
  std::vector<double> rows(4);
  history.copy_rows(0, 1, rows);
  EXPECT_EQ(rows, (std::vector<double>{-50.0, -60.0, -51.0, -61.0}));
  std::vector<double> last(2);
  history.copy_rows(1, 1, last);
  EXPECT_DOUBLE_EQ(last[1], -61.0);
}

TEST(StreamHistoryTest, OldTicksEvictOnceFull) {
  StreamHistory history(1, 4);
  for (int t = 0; t < 10; ++t) {
    history.push(std::vector<double>{static_cast<double>(t)});
  }
  EXPECT_EQ(history.oldest_tick(), 6);
  std::vector<double> w(4);
  history.copy_rows(6, 9, w);
  EXPECT_EQ(w, (std::vector<double>{6.0, 7.0, 8.0, 9.0}));
  std::vector<double> too_old(5);
  EXPECT_THROW(history.copy_rows(5, 9, too_old), ContractViolation);
}

TEST(StreamHistoryTest, WindowRejectsFutureTicks) {
  StreamHistory history(1, 4);
  history.push(std::vector<double>{1.0});
  std::vector<double> w(2);
  EXPECT_THROW(history.copy_rows(0, 1, w), ContractViolation);
  std::vector<double> sums(1);
  EXPECT_THROW(history.sum_rows(0, 1, sums), ContractViolation);
}

TEST(StreamHistoryTest, WindowsReturnsAllStreams) {
  StreamHistory history(3, 4);
  history.push(std::vector<double>{1.0, 2.0, 3.0});
  history.push(std::vector<double>{4.0, 5.0, 6.0});
  std::vector<double> rows(6);
  history.copy_rows(0, 1, rows);
  EXPECT_DOUBLE_EQ(rows[2], 3.0);  // stream 2, tick 0
  EXPECT_DOUBLE_EQ(rows[5], 6.0);  // stream 2, tick 1
  std::vector<double> sums(3);
  history.sum_rows(0, 1, sums);
  EXPECT_EQ(sums, (std::vector<double>{5.0, 7.0, 9.0}));
  std::vector<double> short_out(5);
  EXPECT_THROW(history.copy_rows(0, 1, short_out), ContractViolation);
}

TEST(StreamHistoryTest, PushRejectsWrongWidth) {
  StreamHistory history(2, 4);
  EXPECT_THROW(history.push(std::vector<double>{1.0}), ContractViolation);
}

TEST(StreamHistoryTest, OldestTickBeforeWrapIsZero) {
  StreamHistory history(1, 100);
  history.push(std::vector<double>{1.0});
  EXPECT_EQ(history.oldest_tick(), 0);
}

}  // namespace
}  // namespace fadewich::core
