// Fixed-capacity single-producer/single-consumer ring buffer between the
// wire decoder and the central station — the ingestion hot route.
//
// One thread feeds decoded measurements in (the decoder), one thread
// pops them in batches (the station driver).  Both sides are wait-free:
// a power-of-two slot array indexed by free-running head/tail counters,
// with one acquire/release pair per operation and no locks, so a full
// queue exerts *backpressure* (try_push returns false, push_some returns
// a short count) instead of blocking or allocating.  Single-threaded use —
// the replay driver's tight loop — is the degenerate case and pays only
// uncontended atomics.
//
// pop_batch() drains up to a caller-sized span per call, which is what
// CentralStation::ingest(batch) wants: the station amortises its map
// walks over the whole batch instead of paying them per report.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/net/measurement.hpp"

namespace fadewich::net {

class IngestQueue {
 public:
  /// `capacity` is rounded up to a power of two; requires >= 1.
  explicit IngestQueue(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }

  /// Measurements currently queued (exact from either endpoint thread).
  std::size_t size() const {
    return static_cast<std::size_t>(
        tail_.load(std::memory_order_acquire) -
        head_.load(std::memory_order_acquire));
  }

  /// Producer side: enqueue one measurement.  False when the ring is
  /// full — the producer decides whether to retry after the consumer
  /// drains or drop under pressure, and counts the refusal if it cares.
  bool try_push(const Measurement& m);

  /// Producer side: enqueue a batch; returns how many fit.  Stops at the
  /// first refusal so relative order is never broken.
  std::size_t push_some(std::span<const Measurement> batch);

  /// Producer side, zero-copy: the longest contiguous free run writers
  /// may fill in place (empty when the ring is full or the producer
  /// cursor just wrapped).  Slots stay invisible to the consumer until
  /// the matching publish().
  std::span<Measurement> back_span(std::size_t limit);

  /// Publish the first `n` slots of back_span() to the consumer.
  /// Requires n <= back_span(n).size().
  void publish(std::size_t n);

  /// Consumer side: dequeue up to out.size() measurements in FIFO order;
  /// returns the count written to the front of `out`.
  std::size_t pop_batch(std::span<Measurement> out);

  /// Consumer side, zero-copy: the longest contiguous queued run (empty
  /// when the ring is drained or the producer just wrapped).  The span
  /// aliases ring storage and stays valid until the matching consume();
  /// the producer can meanwhile write other slots but never these.  A
  /// wrapped backlog surfaces as two successive spans.
  std::span<const Measurement> front_span(std::size_t limit) const;

  /// Retire the first `n` measurements of front_span().  Requires
  /// n <= front_span(n).size() — consuming slots never handed out is a
  /// logic error upstream, not runtime input.
  void consume(std::size_t n);

 private:
  std::vector<Measurement> slots_;  // size is a power of two
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
};

}  // namespace fadewich::net
