#include "fadewich/net/playback.hpp"

#include <numeric>

#include "fadewich/common/error.hpp"

namespace fadewich::net {

RecordingPlayback::RecordingPlayback(const sim::Recording& recording)
    : recording_(&recording), streams_(recording.stream_count()) {
  std::iota(streams_.begin(), streams_.end(), std::size_t{0});
}

RecordingPlayback::RecordingPlayback(const sim::Recording& recording,
                                     const std::vector<std::size_t>& sensors)
    : recording_(&recording),
      streams_(recording.streams_for_sensors(sensors)) {}

double RecordingPlayback::tick_hz() const { return recording_->rate().hz(); }

bool RecordingPlayback::next(std::span<double> out) {
  FADEWICH_EXPECTS(out.size() == streams_.size());
  if (position_ >= recording_->tick_count()) return false;
  recording_->copy_rows(streams_, position_, position_, out);
  ++position_;
  return true;
}

}  // namespace fadewich::net
