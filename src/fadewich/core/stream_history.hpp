// Short ring-buffered history of all streams, so the online system can
// fetch V^(i)_{t1, t1+t_delta} when a variation window reaches t_delta
// (t1 is at most t_delta + merge-gap ticks in the past).  Ticks are
// stored row-major, so a push is one row copy and a window read copies
// whole rows into the [rows x streams] block feature extraction takes.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/time.hpp"

namespace fadewich::core {

class StreamHistory {
 public:
  /// Retains the most recent `capacity` ticks of `stream_count` streams.
  StreamHistory(std::size_t stream_count, std::size_t capacity)
      : stream_count_(stream_count),
        capacity_(capacity),
        data_(stream_count * capacity, 0.0) {
    FADEWICH_EXPECTS(stream_count >= 1);
    FADEWICH_EXPECTS(capacity >= 1);
  }

  std::size_t stream_count() const { return stream_count_; }
  std::size_t capacity() const { return capacity_; }
  Tick ticks_stored() const { return next_tick_; }

  /// Oldest tick still retained.
  Tick oldest_tick() const {
    const Tick cap = static_cast<Tick>(capacity_);
    return next_tick_ > cap ? next_tick_ - cap : 0;
  }

  /// Restart the history at an arbitrary tick clock with zeroed contents
  /// (used when restoring a persisted system: the pre-restart samples are
  /// gone, but the tick indexing must stay aligned with the detector).
  void reset(Tick next_tick) {
    FADEWICH_EXPECTS(next_tick >= 0);
    std::fill(data_.begin(), data_.end(), 0.0);
    next_tick_ = next_tick;
  }

  /// Append one tick (one value per stream).
  void push(std::span<const double> row) {
    FADEWICH_EXPECTS(row.size() == stream_count_);
    std::copy(row.begin(), row.end(), data_.begin() + offset(next_tick_));
    ++next_tick_;
  }

  /// Every stream over ticks [begin, end] inclusive, as one row-major
  /// [rows x streams] block: out[(t - begin) * streams + s].  Requires
  /// the range to be fully retained and out.size() == rows * streams.
  void copy_rows(Tick begin, Tick end, std::span<double> out) const {
    check_range(begin, end);
    FADEWICH_EXPECTS(out.size() == static_cast<std::size_t>(end - begin + 1) *
                                       stream_count_);
    auto it = out.begin();
    for (Tick t = begin; t <= end; ++t) {
      const auto row = data_.begin() + offset(t);
      it = std::copy(row, row + static_cast<std::ptrdiff_t>(stream_count_),
                     it);
    }
  }

  /// Per-stream sums over ticks [begin, end]: out[s] starts at 0 and
  /// adds stream s's values in tick order.  Same range contract as
  /// copy_rows; out.size() == stream_count().
  void sum_rows(Tick begin, Tick end, std::span<double> out) const {
    check_range(begin, end);
    FADEWICH_EXPECTS(out.size() == stream_count_);
    std::fill(out.begin(), out.end(), 0.0);
    for (Tick t = begin; t <= end; ++t) {
      const double* row = data_.data() + offset(t);
      for (std::size_t s = 0; s < stream_count_; ++s) out[s] += row[s];
    }
  }

 private:
  std::ptrdiff_t offset(Tick t) const {
    return static_cast<std::ptrdiff_t>(
        static_cast<std::size_t>(t % static_cast<Tick>(capacity_)) *
        stream_count_);
  }

  void check_range(Tick begin, Tick end) const {
    FADEWICH_EXPECTS(begin >= oldest_tick());
    FADEWICH_EXPECTS(begin <= end);
    FADEWICH_EXPECTS(end < next_tick_);
  }

  std::size_t stream_count_;
  std::size_t capacity_;
  std::vector<double> data_;  // tick-major ring: data_[slot * streams + s]
  Tick next_tick_ = 0;
};

}  // namespace fadewich::core
