#include "fadewich/eval/md_evaluation.hpp"

#include <algorithm>
#include <optional>

#include "fadewich/common/error.hpp"

namespace fadewich::eval {

MdRun run_md(const sim::Recording& recording,
             const std::vector<std::size_t>& sensors,
             const core::MovementDetectorConfig& config) {
  const std::vector<std::size_t> streams =
      recording.streams_for_sensors(sensors);
  core::MovementDetector md(streams.size(), recording.rate().hz(), config);
  MdRun out;
  std::optional<core::VariationWindow> open;
  std::vector<double> row(streams.size());
  for (Tick t = 0; t < recording.tick_count(); ++t) {
    recording.copy_rows(streams, t, t, row);
    md.step(row);
    const auto live = md.current_window();
    // A closing step never extends the window, so the one seen before it
    // is the closed window.
    if (open && (!live || live->begin != open->begin)) {
      out.windows.push_back(*open);
    }
    open = live;
  }
  if (open) out.windows.push_back(*open);
  out.tick_hz = recording.rate().hz();
  return out;
}

SumStdSeries collect_sum_std(const sim::Recording& recording,
                             const std::vector<std::size_t>& sensors,
                             const core::MovementDetectorConfig& config) {
  const std::vector<std::size_t> streams =
      recording.streams_for_sensors(sensors);
  core::MovementDetector md(streams.size(), recording.rate().hz(), config);

  // Movement intervals sorted by start; movements never overlap in the
  // generated schedules, so a single advancing cursor suffices.
  std::vector<Interval> moving_intervals;
  for (const auto& e : recording.events()) {
    moving_intervals.push_back({e.movement_start, e.movement_end});
  }
  std::sort(moving_intervals.begin(), moving_intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });

  SumStdSeries out;
  std::size_t cursor = 0;
  std::vector<double> row(streams.size());
  for (Tick tick = 0; tick < recording.tick_count(); ++tick) {
    recording.copy_rows(streams, tick, tick, row);
    const core::MdState state = md.step(row);
    if (state == core::MdState::kCalibrating) continue;
    const Seconds t = recording.rate().to_seconds(tick);
    while (cursor < moving_intervals.size() &&
           moving_intervals[cursor].end < t) {
      ++cursor;
    }
    const bool moving = cursor < moving_intervals.size() &&
                        moving_intervals[cursor].contains(t);
    (moving ? out.moving : out.quiet).push_back(md.last_sum_std());
  }
  out.threshold = md.profile().threshold();
  return out;
}

}  // namespace fadewich::eval
