// Playback of a sim::Recording as synchronised RSSI streams advancing one
// tick at a time, optionally restricted to the streams of a sensor
// subset.  All the paper's offline sweeps (sensor counts, t_delta
// values) run MD/RE over playbacks of one recording, exactly as the
// authors analysed one physical dataset.
#pragma once

#include <span>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::net {

class RecordingPlayback {
 public:
  /// Play back every stream of the recording.
  explicit RecordingPlayback(const sim::Recording& recording);

  /// Play back only the ordered-pair streams among `sensors` (indices
  /// into the recorded deployment).  Requires >= 2 sensors.
  RecordingPlayback(const sim::Recording& recording,
                    const std::vector<std::size_t>& sensors);

  std::size_t stream_count() const { return streams_.size(); }
  double tick_hz() const;

  /// Advance one tick.  Returns false once the recording is exhausted;
  /// otherwise `out` (size stream_count()) receives the new samples.
  bool next(std::span<double> out);

  Tick position() const { return position_; }
  void rewind() { position_ = 0; }

 private:
  const sim::Recording* recording_;
  std::vector<std::size_t> streams_;  // recording stream indices
  Tick position_ = 0;
};

}  // namespace fadewich::net
