#include "fadewich/eval/sample_extraction.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"
#include "fadewich/core/radio_environment.hpp"

namespace fadewich::eval {

std::vector<std::vector<double>> window_samples(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::VariationWindow& window, Seconds t_delta) {
  FADEWICH_EXPECTS(t_delta > 0.0);
  const std::vector<std::size_t> streams =
      recording.streams_for_sensors(sensors);
  const Tick len = recording.rate().to_ticks_ceil(t_delta);
  const Tick begin = window.begin;
  const Tick end =
      std::min<Tick>(begin + len - 1, recording.tick_count() - 1);
  FADEWICH_EXPECTS(end >= begin);

  std::vector<std::vector<double>> out;
  out.reserve(streams.size());
  for (std::size_t s : streams) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(end - begin + 1));
    for (Tick t = begin; t <= end; ++t) {
      samples.push_back(recording.rssi(s, t));
    }
    out.push_back(std::move(samples));
  }
  return out;
}

int event_label(const sim::GroundTruthEvent& event) {
  return event.kind == sim::EventKind::kEnter
             ? core::kLabelEntered
             : core::label_for_workstation(event.workstation);
}

ml::Dataset build_dataset(const sim::Recording& recording,
                          const std::vector<std::size_t>& sensors,
                          const MatchResult& matches, Seconds t_delta,
                          const core::FeatureConfig& features) {
  ml::Dataset data;
  for (const MatchedWindow& tp : matches.true_positives) {
    const auto windows =
        window_samples(recording, sensors, tp.window, t_delta);
    data.add(core::extract_features(windows, features),
             event_label(recording.events()[tp.event_index]));
  }
  return data;
}

std::vector<std::pair<std::size_t, std::size_t>> dataset_stream_pairs(
    const std::vector<std::size_t>& sensors) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(sensors.size() * (sensors.size() - 1));
  for (std::size_t tx : sensors) {
    for (std::size_t rx : sensors) {
      if (tx != rx) pairs.emplace_back(tx, rx);
    }
  }
  return pairs;
}

std::vector<std::string> dataset_feature_names(
    const std::vector<std::size_t>& sensors) {
  return core::feature_names(dataset_stream_pairs(sensors));
}

}  // namespace fadewich::eval
