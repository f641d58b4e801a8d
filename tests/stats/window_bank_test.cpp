// WindowBank's contract is that stream i evolves bit-for-bit like a
// RollingWindow(capacity) fed the same samples — including the Welford
// delta/n division order and the periodic batch refresh — so MD could be
// swapped onto the bank without changing any detector output.  The tests
// therefore compare against a vector<RollingWindow> with EXPECT_EQ, no
// tolerance.

#include "fadewich/stats/window_bank.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "oracle/rolling_window.hpp"

namespace fadewich::stats {
namespace {

void expect_matches_reference(const WindowBank& bank,
                              const std::vector<RollingWindow>& ref) {
  ASSERT_EQ(bank.streams(), ref.size());
  std::vector<double> sd(bank.streams(), -1.0);
  if (!bank.empty()) bank.stddev_into(sd);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bank.size(), ref[i].size());
    EXPECT_EQ(bank.values(i), ref[i].values()) << "stream " << i;
    if (!ref[i].empty()) {
      EXPECT_EQ(bank.mean(i), ref[i].mean()) << "stream " << i;
      EXPECT_EQ(bank.variance(i), ref[i].variance()) << "stream " << i;
      EXPECT_EQ(bank.stddev(i), ref[i].stddev()) << "stream " << i;
      EXPECT_EQ(sd[i], ref[i].stddev()) << "stream " << i;
    }
  }
}

TEST(WindowBank, BitExactAgainstRollingWindowsThroughFillAndWrap) {
  // Streams chosen to leave a scalar tail at every vector width.
  const std::size_t streams = 7, capacity = 5;
  WindowBank bank(streams, capacity);
  std::vector<RollingWindow> ref(streams, RollingWindow(capacity));
  EXPECT_TRUE(bank.empty());
  EXPECT_EQ(bank.capacity(), capacity);

  Rng rng(11);
  std::vector<double> row(streams);
  for (int push = 0; push < 4 * static_cast<int>(capacity) + 3; ++push) {
    for (std::size_t i = 0; i < streams; ++i) {
      row[i] = rng.normal(0.0, 3.0);
      ref[i].push(row[i]);
    }
    bank.push_row(row);
    expect_matches_reference(bank, ref);
  }
  EXPECT_TRUE(bank.full());
}

TEST(WindowBank, SingleStreamSingleCapacity) {
  WindowBank bank(1, 1);
  std::vector<RollingWindow> ref(1, RollingWindow(1));
  const double vals[] = {3.25, -1.5, 0.0, 7.75};
  for (double v : vals) {
    bank.push_row(std::span<const double>(&v, 1));
    ref[0].push(v);
    expect_matches_reference(bank, ref);
  }
}

TEST(WindowBank, ClearEmptiesAndRefills) {
  const std::size_t streams = 3, capacity = 4;
  WindowBank bank(streams, capacity);
  std::vector<RollingWindow> ref(streams, RollingWindow(capacity));
  Rng rng(29);
  std::vector<double> row(streams);
  const auto push_n = [&](int n) {
    for (int k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < streams; ++i) {
        row[i] = rng.uniform(-5.0, 5.0);
        ref[i].push(row[i]);
      }
      bank.push_row(row);
    }
  };
  push_n(9);
  bank.clear();
  for (auto& w : ref) w.clear();
  EXPECT_TRUE(bank.empty());
  EXPECT_EQ(bank.size(), 0u);
  EXPECT_EQ(bank.capacity(), capacity);
  push_n(6);
  expect_matches_reference(bank, ref);
}

TEST(WindowBank, StaysBitExactAcrossPeriodicRefresh) {
  // Both implementations rebuild mean/M2 from the buffer every 2^16
  // pushes; running past that boundary proves the refresh cadences (and
  // the rebuilt state) agree exactly.
  const std::size_t streams = 2, capacity = 3;
  WindowBank bank(streams, capacity);
  std::vector<RollingWindow> ref(streams, RollingWindow(capacity));
  Rng rng(47);
  std::vector<double> row(streams);
  const int pushes = (1 << 16) + 64;
  for (int k = 0; k < pushes; ++k) {
    for (std::size_t i = 0; i < streams; ++i) {
      row[i] = rng.normal(-55.0, 4.0);
      ref[i].push(row[i]);
    }
    bank.push_row(row);
    // Full comparison at the boundary region, spot checks elsewhere.
    if (k > (1 << 16) - 4 || k % 4096 == 0) {
      expect_matches_reference(bank, ref);
    }
  }
  expect_matches_reference(bank, ref);
}

TEST(WindowBank, ContractViolationsFire) {
  EXPECT_THROW(WindowBank(0, 4), ContractViolation);
  EXPECT_THROW(WindowBank(4, 0), ContractViolation);
  WindowBank bank(3, 2);
  std::vector<double> wrong(2, 0.0);
  EXPECT_THROW(bank.push_row(wrong), ContractViolation);
  EXPECT_THROW(bank.mean(0), ContractViolation);  // empty
  std::vector<double> row(3, 1.0);
  bank.push_row(row);
  EXPECT_THROW(bank.mean(3), ContractViolation);  // stream OOB
}

}  // namespace
}  // namespace fadewich::stats
