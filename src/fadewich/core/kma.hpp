// Keyboard/Mouse Activity module (Section IV-B).
//
// Tracks the last input instant of every workstation and answers the one
// query the rest of the system needs: which workstations have been idle
// for at least s seconds at time t — the set S_t^(s).
#pragma once

#include <cstddef>
#include <vector>

#include "fadewich/common/time.hpp"

namespace fadewich::core {

class KeyboardMouseActivity {
 public:
  /// Requires at least one workstation.
  explicit KeyboardMouseActivity(std::size_t workstation_count);

  std::size_t workstation_count() const { return last_input_.size(); }

  /// Record an input event.  Events may arrive out of order; only the
  /// maximum matters.
  void record_input(std::size_t workstation, Seconds t);

  /// Idle time of a workstation at time t: seconds since its last input,
  /// or infinity if it never received input.  Requires t >= last input
  /// (clocks don't run backwards past recorded activity; queries between
  /// out-of-order arrivals are answered against what is known).
  Seconds idle_time(std::size_t workstation, Seconds t) const;

  /// True if the workstation is in S_t^(s), the set of workstations
  /// idle for at least s seconds at time t.
  bool idle_for(std::size_t workstation, Seconds t, Seconds s) const;

  /// Last-input instants for persistence (-infinity = never seen).
  const std::vector<Seconds>& last_inputs() const { return last_input_; }

  /// Restore persisted idle timers.  Throws fadewich::Error when the
  /// snapshot's workstation count does not match this deployment.
  void restore(std::vector<Seconds> last_inputs);

 private:
  std::vector<Seconds> last_input_;  // -infinity when never seen
};

}  // namespace fadewich::core
