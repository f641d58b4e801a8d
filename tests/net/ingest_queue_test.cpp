#include "fadewich/net/ingest_queue.hpp"

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::net {
namespace {

Measurement report(Tick tick, double rssi = -50.0) {
  return {0, 1, tick, rssi};
}

TEST(IngestQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(IngestQueue(0), ContractViolation);
}

TEST(IngestQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(IngestQueue(1).capacity(), 1u);
  EXPECT_EQ(IngestQueue(2).capacity(), 2u);
  EXPECT_EQ(IngestQueue(3).capacity(), 4u);
  EXPECT_EQ(IngestQueue(1000).capacity(), 1024u);
}

TEST(IngestQueueTest, FifoOrderAcrossWraparound) {
  IngestQueue queue(4);
  std::vector<Measurement> out(3);
  Tick next = 0;
  // Push/pop more than capacity so the cursors wrap several times.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.try_push(report(next + i)));
    }
    ASSERT_EQ(queue.pop_batch(out), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)].tick, next + i);
    }
    next += 3;
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(IngestQueueTest, FullQueueExertsBackpressure) {
  IngestQueue queue(4);
  for (Tick t = 0; t < 4; ++t) EXPECT_TRUE(queue.try_push(report(t)));
  EXPECT_FALSE(queue.try_push(report(4)));
  EXPECT_FALSE(queue.try_push(report(5)));
  EXPECT_EQ(queue.size(), 4u);

  // Draining reopens the ring.
  std::vector<Measurement> out(4);
  EXPECT_EQ(queue.pop_batch(out), 4u);
  EXPECT_TRUE(queue.try_push(report(6)));
}

TEST(IngestQueueTest, PushSomeStopsAtTheFirstRefusal) {
  IngestQueue queue(4);
  std::vector<Measurement> batch;
  for (Tick t = 0; t < 6; ++t) batch.push_back(report(t));
  EXPECT_EQ(queue.push_some(batch), 4u);
  // A full ring refuses the rest outright.
  EXPECT_EQ(queue.push_some(std::span(batch).subspan(4)), 0u);
  EXPECT_EQ(queue.size(), 4u);
  std::vector<Measurement> out(6);
  ASSERT_EQ(queue.pop_batch(out), 4u);
  for (Tick t = 0; t < 4; ++t) {
    EXPECT_EQ(out[static_cast<std::size_t>(t)].tick, t);  // prefix, in order
  }
}

TEST(IngestQueueTest, PopBatchIsBoundedByTheSpan) {
  IngestQueue queue(8);
  for (Tick t = 0; t < 6; ++t) queue.try_push(report(t));
  std::vector<Measurement> out(4);
  EXPECT_EQ(queue.pop_batch(out), 4u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop_batch(out), 2u);
  EXPECT_EQ(queue.pop_batch(out), 0u);
}

TEST(IngestQueueTest, SpscStressPreservesEveryReportInOrder) {
  // One producer, one consumer, a deliberately tiny ring: the consumer
  // must see ticks 0..n-1 exactly once, in order, with pushes retried
  // under backpressure.  Run under TSan/ASan in CI.
  constexpr Tick kReports = 200000;
  IngestQueue queue(64);

  std::thread producer([&] {
    for (Tick t = 0; t < kReports; ++t) {
      while (!queue.try_push(report(t))) std::this_thread::yield();
    }
  });

  Tick expected = 0;
  std::vector<Measurement> out(32);
  while (expected < kReports) {
    const std::size_t n = queue.pop_batch(out);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i].tick, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace fadewich::net
