// Building RE datasets from a recording: extract the feature sample of
// each true-positive variation window and label it from ground truth
// (the paper's supervisor labels), exactly as Section VII-B evaluates RE.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fadewich/core/features.hpp"
#include "fadewich/eval/window_matching.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

/// Per-stream windows [t1, t1 + t_delta) of a variation window, read from
/// the recording over the streams of `sensors`.
std::vector<std::vector<double>> window_samples(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::VariationWindow& window, Seconds t_delta);

/// Dataset of all matched true positives: features from the window's
/// first t_delta seconds, label from the matched event (w0 for entries,
/// w_i for leaves).  Sample order follows `matches.true_positives`.
ml::Dataset build_dataset(const sim::Recording& recording,
                          const std::vector<std::size_t>& sensors,
                          const MatchResult& matches, Seconds t_delta,
                          const core::FeatureConfig& features);

/// Ground-truth label of an event (w0 / w_i convention of
/// core/radio_environment.hpp).
int event_label(const sim::GroundTruthEvent& event);

/// Feature names matching build_dataset's column order.
std::vector<std::string> dataset_feature_names(
    const std::vector<std::size_t>& sensors);

/// (tx, rx) sensor-index pairs of the dataset's streams, in column-group
/// order (original deployment indices, 0-based).
std::vector<std::pair<std::size_t, std::size_t>> dataset_stream_pairs(
    const std::vector<std::size_t>& sensors);

}  // namespace fadewich::eval
