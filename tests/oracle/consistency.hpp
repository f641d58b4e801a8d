// Test oracle: defend::ConsistencyChecker's rules over a floating
// Welford window (oracle/rolling_window.hpp), one sample at a time.
//
// The library judges a frame's reports in one branch-free pass over an
// exact integer window with integer thresholds; this reference judges
// each report on its own with the rules written out as plain ifs over
// doubles, so the differential tests compare two independent
// formulations sample by sample.
//
// The two windows can only disagree when a window's exact standard
// deviation equals a cap: the integer test says "not over", while Welford
// may land an ulp either side.  The reference therefore settles exact
// ties with the integer rule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/defend/consistency.hpp"
#include "oracle/rolling_window.hpp"

namespace fadewich::oracle {

class ReferenceChecker {
 public:
  /// A reference with `twin`'s device count, config and static bounds.
  explicit ReferenceChecker(const defend::ConsistencyChecker& twin);

  /// Judge one sample on stream `stream` at tick `now`.
  defend::SampleVerdict check(std::size_t stream, double x, Tick now);

  /// Judge a frame's reports one at a time, in report order; reports
  /// naming no link of the deployment are kUnchecked.
  void check_frame(net::DeviceId tx, std::span<const net::WireReport> reports,
                   Tick now, std::span<defend::SampleVerdict> out);

  bool quarantined(std::size_t stream, Tick now) const {
    return links_[stream].quarantine_until > now;
  }
  std::uint64_t quarantines() const { return quarantines_; }

 private:
  struct Link {
    stats::RollingWindow window;
    double last = 0.0;
    bool has_last = false;
    std::uint32_t run = 1;
    std::uint32_t suspicion = 0;
    Tick quarantine_until = -1;
    explicit Link(std::size_t n) : window(n) {}
  };

  defend::ConsistencyConfig config_;
  std::size_t device_count_;
  std::vector<double> bounds_;
  std::vector<Link> links_;
  std::uint64_t quarantines_ = 0;
};

}  // namespace fadewich::oracle
