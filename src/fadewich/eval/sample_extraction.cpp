#include "fadewich/eval/sample_extraction.hpp"

#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/core/radio_environment.hpp"

namespace fadewich::eval {

core::WindowBlock window_samples(const sim::Recording& recording,
                                 const std::vector<std::size_t>& sensors,
                                 const core::VariationWindow& window,
                                 Seconds t_delta,
                                 common::ScratchArena& arena) {
  const std::vector<std::size_t> streams =
      recording.streams_for_sensors(sensors);
  const auto [begin, end] = core::feature_tick_range(
      recording.rate(), t_delta, window.begin, 0, recording.tick_count() - 1);
  const auto rows = static_cast<std::size_t>(end - begin + 1);
  const std::span<double> data = arena.get<double>(rows * streams.size());
  recording.copy_rows(streams, begin, end, data);
  return {data, rows, streams.size()};
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
  auto& arena = common::ScratchArena::local();
  for (const MatchedWindow& tp : matches.true_positives) {
    const auto frame = arena.frame();
    const core::WindowBlock block =
        window_samples(recording, sensors, tp.window, t_delta, arena);
    std::vector<double> sample(block.streams * core::kFeaturesPerStream);
    core::extract_features(block, features, sample);
    data.add(std::move(sample),
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
