#include "fadewich/core/radio_environment.hpp"

#include <algorithm>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::core {

namespace {

// Per-label counters are created lazily (labels are open-ended small
// ints).  Classification happens at most once per variation window, so
// the name lookup is off the per-tick hot path.
void count_label(int label) {
  if (!obs::enabled()) return;
  obs::registry()
      .counter("fadewich_re_classified_total{label=\"" +
                   std::to_string(label) + "\"}",
               "classifications by predicted label")
      .inc();
}

}  // namespace

RadioEnvironment::RadioEnvironment(FeatureConfig features, ml::SvmConfig svm)
    : features_(features), svm_(svm) {}

std::vector<double> RadioEnvironment::features_from(
    const std::vector<std::vector<double>>& stream_windows) const {
  return extract_features(stream_windows, features_);
}

std::vector<double> RadioEnvironment::features_from(
    const std::vector<std::vector<double>>& stream_windows,
    std::span<const double> validity) const {
  std::vector<double> features = extract_features(stream_windows, features_);
  if (validity.empty()) return features;
  FADEWICH_EXPECTS(validity.size() == stream_windows.size());
  for (std::size_t s = 0; s < validity.size(); ++s) {
    if (validity[s] >= features_.min_stream_validity) continue;
    std::fill_n(features.begin() +
                    static_cast<std::ptrdiff_t>(s * kFeaturesPerStream),
                kFeaturesPerStream, 0.0);
  }
  return features;
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
    const std::vector<std::vector<double>>& stream_windows,
    std::span<const double> validity) const {
  if (!trained()) return std::nullopt;
  if (!validity.empty()) {
    FADEWICH_EXPECTS(validity.size() == stream_windows.size());
    const double live = static_cast<double>(live_streams(validity));
    const double total = static_cast<double>(validity.size());
    if (live / total < features_.min_live_stream_fraction) {
      if (obs::enabled()) {
        obs::registry()
            .counter("fadewich_re_degraded_unavailable_total",
                     "classifications refused for lack of live streams")
            .inc();
      }
      return std::nullopt;
    }
  }
  return classify(features_from(stream_windows, validity));
}

void RadioEnvironment::train(const ml::Dataset& samples) {
  svm_.train(samples);
}

int RadioEnvironment::classify(const std::vector<double>& features) const {
  const int label = svm_.predict(features);
  count_label(label);
  return label;
}

void RadioEnvironment::classify_block(
    const std::vector<std::vector<double>>& features,
    std::span<int> out) const {
  svm_.predict_block(features, out);
  for (const int label : out) count_label(label);
}

}  // namespace fadewich::core
