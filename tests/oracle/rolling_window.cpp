#include "oracle/rolling_window.hpp"

#include <cmath>

#include "fadewich/common/error.hpp"

namespace fadewich::stats {

RollingWindow::RollingWindow(std::size_t capacity) : buffer_(capacity) {
  FADEWICH_EXPECTS(capacity >= 1);
}

void RollingWindow::push(double value) {
  if (full()) {
    // Replace the evicted sample in one combined Welford step: with the
    // count unchanged, mean moves by delta/n and M2 absorbs the evicted
    // and inserted deviations together.
    const double evicted = buffer_[head_];
    const double delta = value - evicted;
    const double dev_old = evicted - mean_;
    mean_ += delta / static_cast<double>(size_);
    const double dev_new = value - mean_;
    m2_ += delta * (dev_old + dev_new);
  } else {
    ++size_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(size_);
    m2_ += delta * (value - mean_);
  }
  buffer_[head_] = value;
  head_ = (head_ + 1) % buffer_.size();

  if (++pushes_since_refresh_ >= kRefreshInterval) refresh_sums();
}

double RollingWindow::mean() const {
  FADEWICH_EXPECTS(!empty());
  return mean_;
}

double RollingWindow::variance() const {
  FADEWICH_EXPECTS(!empty());
  const double var = m2_ / static_cast<double>(size_);
  // Guard the tiny negative values incremental updates can produce.
  return var > 0.0 ? var : 0.0;
}

double RollingWindow::stddev() const { return std::sqrt(variance()); }

std::vector<double> RollingWindow::values() const {
  std::vector<double> out;
  out.reserve(size_);
  // Oldest element sits at head_ when full, at 0 otherwise.
  const std::size_t start = full() ? head_ : 0;
  for (std::size_t k = 0; k < size_; ++k) {
    out.push_back(buffer_[(start + k) % buffer_.size()]);
  }
  return out;
}

void RollingWindow::clear() {
  head_ = 0;
  size_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  pushes_since_refresh_ = 0;
}

void RollingWindow::refresh_sums() {
  // Re-derive the accumulators with a batch Welford pass over the live
  // window contents.
  mean_ = 0.0;
  m2_ = 0.0;
  const std::size_t start = full() ? head_ : 0;
  for (std::size_t k = 0; k < size_; ++k) {
    const double v = buffer_[(start + k) % buffer_.size()];
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(k + 1);
    m2_ += delta * (v - mean_);
  }
  pushes_since_refresh_ = 0;
}

}  // namespace fadewich::stats
