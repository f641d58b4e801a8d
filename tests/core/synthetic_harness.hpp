// Shared test harness: drives a FadewichSystem with synthetic RSSI
// streams and scripted users, without the RF simulator.  Movements are
// injected as variance bursts on workstation-specific stream subsets.
#pragma once

#include <cmath>
#include <optional>
#include <set>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/core/system.hpp"

namespace fadewich::core::testing {

constexpr double kHz = 5.0;
constexpr std::size_t kStreams = 4;
constexpr std::size_t kWorkstations = 2;

inline SystemConfig harness_config() {
  SystemConfig config;
  config.tick_hz = kHz;
  config.md.std_window = 2.0;
  config.md.calibration = 15.0;
  config.md.profile.capacity = 100;
  config.md.profile.batch_size = 50;
  config.labeler.long_idle = 20.0;
  return config;
}

class Harness {
 public:
  Harness()
      : owned_(std::in_place, kStreams, kWorkstations, harness_config()),
        system_(*owned_),
        rng_(77) {}

  /// Drive a system someone else owns (built with harness_config()).
  explicit Harness(FadewichSystem& system) : system_(system), rng_(77) {}

  FadewichSystem& system() { return system_; }
  Seconds now() const { return system_.now(); }

  /// Streams that light up when the given workstation's user moves.
  static std::set<std::size_t> streams_of(std::size_t workstation) {
    return workstation == 0 ? std::set<std::size_t>{0, 1}
                            : std::set<std::size_t>{2, 3};
  }

  /// One step's result, with its actions copied out of the system's
  /// buffer (which the next step reuses).
  struct Step {
    MdState md_state = MdState::kCalibrating;
    std::vector<Action> actions;
    std::optional<int> classification;
  };

  /// Advance `seconds`, with users of `typing` workstations generating
  /// input every second, and `moving_streams` carrying burst variance.
  std::vector<Step> advance(Seconds seconds,
                            const std::set<std::size_t>& typing,
                            const std::set<std::size_t>& moving_streams) {
    std::vector<Step> results;
    const auto ticks = static_cast<int>(seconds * kHz);
    for (int i = 0; i < ticks; ++i) {
      const Seconds t = system_.now();
      for (std::size_t w : typing) {
        if (std::fmod(t, 1.0) < 1.0 / kHz) system_.record_input(w, t);
      }
      std::vector<double> row(kStreams);
      for (std::size_t s = 0; s < kStreams; ++s) {
        const double sigma = moving_streams.count(s) ? 4.0 : 0.4;
        row[s] = std::round(rng_.normal(-60.0, sigma));
      }
      const FadewichSystem::StepResult r = system_.step(row);
      results.push_back({r.md_state, {r.actions.begin(), r.actions.end()},
                         r.classification});
    }
    return results;
  }

  /// Scripted leave: the user stops typing, a 6 s burst, then quiet.
  void leave(std::size_t workstation,
             const std::set<std::size_t>& others) {
    advance(6.0, others, streams_of(workstation));
    advance(25.0, others, {});
  }

  /// Scripted return: burst, then typing resumes.
  void enter(std::size_t workstation, std::set<std::size_t> others) {
    advance(6.0, others, streams_of(workstation));
    others.insert(workstation);
    advance(20.0, others, {});
  }

  /// Calibrate and run several leave/enter rounds for both workstations.
  void train() {
    advance(20.0, {0, 1}, {});
    for (int round = 0; round < 4; ++round) {
      leave(0, {1});
      enter(0, {1});
      leave(1, {0});
      enter(1, {0});
    }
  }

 private:
  std::optional<FadewichSystem> owned_;
  FadewichSystem& system_;
  Rng rng_;
};

}  // namespace fadewich::core::testing
