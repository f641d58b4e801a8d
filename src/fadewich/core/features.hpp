// RE feature extraction (Section IV-D1).
//
// For every stream's window V^(i)_{t1, t1+t_delta} three features are
// computed: variance, entropy of the window's value-frequency histogram,
// and autocorrelation.  The sample's feature vector concatenates them per
// stream in stream order: [var_0, ent_0, ac_0, var_1, ent_1, ac_1, ...].
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fadewich::core {

/// Variance, entropy and autocorrelation: one of each per stream.
inline constexpr std::size_t kFeaturesPerStream = 3;

struct FeatureConfig {
  std::size_t autocorr_lag = 1;
  // Degraded-input policy (fault-tolerant reporting): a stream whose
  // fraction of fresh samples over the feature window falls below
  // `min_stream_validity` contributes zeroed features (its imputed
  // window would mostly measure the imputation, not the radio), and when
  // fewer than `min_live_stream_fraction` of all streams are live the
  // classification is declared unavailable — the controller then falls
  // back to Rule-2 timeouts instead of trusting a starved classifier.
  double min_stream_validity = 0.5;
  double min_live_stream_fraction = 0.5;
};

/// One t_delta window of every stream as a row-major [rows x streams]
/// block: column s is stream s's window in tick order (the layout
/// StreamHistory::copy_rows fills).
struct WindowBlock {
  std::span<const double> data;  // rows * streams values
  std::size_t rows = 0;
  std::size_t streams = 0;
};

/// Features of one stream window.  Requires a window longer than the
/// autocorrelation lag.
void append_stream_features(std::span<const double> window,
                            const FeatureConfig& config,
                            std::vector<double>& out);

/// Full sample of a window block into `out` (streams *
/// kFeaturesPerStream values, stream order).  Bit-identical to
/// append_stream_features on each column; scratch comes from the
/// thread's arena, so a warm call never touches the heap.  Requires
/// rows > autocorr_lag.
void extract_features(const WindowBlock& window, const FeatureConfig& config,
                      std::span<double> out);

/// Full sample from one window per stream (offline extraction): windows
/// of equal length are packed into a block; ragged ones go stream by
/// stream through append_stream_features.
std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const FeatureConfig& config);

/// Human-readable feature names in extraction order, e.g. "d9-d2-ent"
/// (Table V's naming).  `pairs` holds the (tx, rx) sensor indices of each
/// stream, 0-based; names are 1-based like the paper.
std::vector<std::string> feature_names(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

}  // namespace fadewich::core
