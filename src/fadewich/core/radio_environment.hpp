// Radio Environment module (Section IV-D): turns the first t_delta
// seconds of a variation window into a feature sample and classifies it
// with a multiclass SVM.
//
// Label convention (fixed across the library):
//   0     -> w0, "someone entered the office"
//   1..k  -> w_i, "user left workstation i-1" (0-based workstation index)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fadewich/core/features.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::core {

/// Label helpers.
constexpr int kLabelEntered = 0;
constexpr int label_for_workstation(std::size_t workstation) {
  return static_cast<int>(workstation) + 1;
}
constexpr bool is_leave_label(int label) { return label > 0; }
constexpr std::size_t workstation_of_label(int label) {
  return static_cast<std::size_t>(label - 1);
}

class RadioEnvironment {
 public:
  RadioEnvironment(FeatureConfig features, ml::SvmConfig svm);

  const FeatureConfig& feature_config() const { return features_; }

  /// A sample's feature vector from a window block into `out` (streams *
  /// kFeaturesPerStream values), without touching the heap once warm.
  /// `validity` holds per-stream validity fractions (share of fresh,
  /// non-imputed samples in each stream's window); streams below
  /// `FeatureConfig::min_stream_validity` contribute zeroed features.
  /// An empty span means fully valid.
  void features_from(const WindowBlock& window,
                     std::span<const double> validity,
                     std::span<double> out) const;

  /// Live streams given validity fractions: validity >= min_stream_validity.
  std::size_t live_streams(std::span<const double> validity) const;

  /// Classify degraded input — the deployed system's one classification
  /// path, so it is the one this instance counts.  Returns nullopt when
  /// the classifier is untrained or fewer than min_live_stream_fraction
  /// of streams are live — classification confidence is then
  /// unavailable and callers (the controller) fall back to Rule-2
  /// timeouts.  Features and the SVM query use arena scratch and a
  /// reused buffer, so a warm call allocates nothing.
  std::optional<int> classify_degraded(const WindowBlock& window,
                                       std::span<const double> validity);

  /// Train the classifier on labeled samples.  Requires non-empty data.
  void train(const ml::Dataset& samples);

  bool trained() const { return svm_.trained(); }

  /// The trained classifier, for persistence.  Requires trained().
  ml::MulticlassSvmState export_classifier() const {
    return svm_.export_state();
  }

  /// Restore a persisted classifier (throws fadewich::Error on
  /// inconsistent state).
  void import_classifier(ml::MulticlassSvmState state) {
    svm_.import_state(std::move(state));
  }

  /// Classify a feature vector.  Requires trained().
  int classify(const std::vector<double>& features) const;

  /// The "re" block: classify_degraded() results per predicted label
  /// (classified_label_<l>) and refusals for lack of live streams
  /// (degraded_unavailable).
  obs::HealthBlock health_block() const;

 private:
  FeatureConfig features_;
  ml::MulticlassSvm svm_;
  std::vector<double> query_;  // classify_degraded's feature buffer
  std::vector<std::uint64_t> classified_;  // indexed by predicted label
  std::uint64_t degraded_unavailable_ = 0;
};

}  // namespace fadewich::core
