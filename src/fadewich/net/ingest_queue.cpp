#include "fadewich/net/ingest_queue.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"

namespace fadewich::net {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

IngestQueue::IngestQueue(std::size_t capacity) {
  FADEWICH_EXPECTS(capacity >= 1);
  slots_.resize(round_up_pow2(capacity));
  mask_ = slots_.size() - 1;
}

bool IngestQueue::try_push(const Measurement& m) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) return false;
  slots_[static_cast<std::size_t>(tail) & mask_] = m;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

std::size_t IngestQueue::push_some(std::span<const Measurement> batch) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t room = slots_.size() - (tail - head);
  const std::size_t n =
      std::min(batch.size(), static_cast<std::size_t>(room));
  for (std::size_t i = 0; i < n; ++i) {
    slots_[static_cast<std::size_t>(tail + i) & mask_] = batch[i];
  }
  tail_.store(tail + n, std::memory_order_release);
  return n;
}

std::size_t IngestQueue::pop_batch(std::span<Measurement> out) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::size_t n =
      std::min(out.size(), static_cast<std::size_t>(tail - head));
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = slots_[static_cast<std::size_t>(head + i) & mask_];
  }
  head_.store(head + n, std::memory_order_release);
  return n;
}

std::span<Measurement> IngestQueue::back_span(std::size_t limit) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t at = static_cast<std::size_t>(tail) & mask_;
  const std::size_t room =
      slots_.size() - static_cast<std::size_t>(tail - head);
  const std::size_t n = std::min({limit, room, slots_.size() - at});
  return {slots_.data() + at, n};
}

void IngestQueue::publish(std::size_t n) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  tail_.store(tail + n, std::memory_order_release);
}

std::span<const Measurement> IngestQueue::front_span(
    std::size_t limit) const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::size_t at = static_cast<std::size_t>(head) & mask_;
  const std::size_t queued = static_cast<std::size_t>(tail - head);
  const std::size_t n =
      std::min({limit, queued, slots_.size() - at});
  return {slots_.data() + at, n};
}

void IngestQueue::consume(std::size_t n) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  head_.store(head + n, std::memory_order_release);
}

}  // namespace fadewich::net
