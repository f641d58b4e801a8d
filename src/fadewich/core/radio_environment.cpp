#include "fadewich/core/radio_environment.hpp"

#include <algorithm>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::core {

RadioEnvironment::RadioEnvironment(FeatureConfig features, ml::SvmConfig svm)
    : features_(features), svm_(svm) {}

void RadioEnvironment::features_from(const WindowBlock& window,
                                     std::span<const double> validity,
                                     std::span<double> out) const {
  extract_features(window, features_, out);
  if (validity.empty()) return;
  FADEWICH_EXPECTS(validity.size() == window.streams);
  for (std::size_t s = 0; s < validity.size(); ++s) {
    if (validity[s] >= features_.min_stream_validity) continue;
    std::fill_n(out.begin() +
                    static_cast<std::ptrdiff_t>(s * kFeaturesPerStream),
                kFeaturesPerStream, 0.0);
  }
}

std::size_t RadioEnvironment::live_streams(
    std::span<const double> validity) const {
  std::size_t live = 0;
  for (const double v : validity) {
    if (v >= features_.min_stream_validity) ++live;
  }
  return live;
}

std::optional<int> RadioEnvironment::classify_degraded(
    const WindowBlock& window, std::span<const double> validity) {
  if (!trained()) return std::nullopt;
  if (!validity.empty()) {
    FADEWICH_EXPECTS(validity.size() == window.streams);
    const double live = static_cast<double>(live_streams(validity));
    const double total = static_cast<double>(validity.size());
    if (live / total < features_.min_live_stream_fraction) {
      ++degraded_unavailable_;
      return std::nullopt;
    }
  }
  query_.resize(window.streams * kFeaturesPerStream);
  features_from(window, validity, query_);
  int label = 0;
  svm_.predict_block(query_, 1, std::span<int>(&label, 1));
  if (label >= 0) {
    const auto slot = static_cast<std::size_t>(label);
    if (slot >= classified_.size()) classified_.resize(slot + 1, 0);
    ++classified_[slot];
  }
  return label;
}

void RadioEnvironment::train(const ml::Dataset& samples) {
  svm_.train(samples);
}

int RadioEnvironment::classify(const std::vector<double>& features) const {
  return svm_.predict(features);
}

obs::HealthBlock RadioEnvironment::health_block() const {
  obs::HealthBlock block;
  block.name = "re";
  for (std::size_t label = 0; label < classified_.size(); ++label) {
    block.add("classified_label_" + std::to_string(label),
              static_cast<double>(classified_[label]));
  }
  block.add("degraded_unavailable",
            static_cast<double>(degraded_unavailable_));
  return block;
}

}  // namespace fadewich::core
