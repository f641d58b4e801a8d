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

#include "fadewich/common/time.hpp"

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
/// block: column s is stream s's window in tick order.  The one window
/// layout: StreamHistory::copy_rows fills it for the deployed system,
/// sim::Recording::copy_rows for offline evaluation.
struct WindowBlock {
  std::span<const double> data;  // rows * streams values
  std::size_t rows = 0;
  std::size_t streams = 0;
};

/// Ticks [first, last] (inclusive) of the feature window of a variation
/// window that opened at `window_begin`: its first
/// rate.to_ticks_ceil(t_delta) ticks, clamped to the ticks
/// [oldest, newest] the reader holds.  Requires t_delta > 0 and a
/// non-empty result.
std::pair<Tick, Tick> feature_tick_range(const TickRate& rate,
                                         Seconds t_delta, Tick window_begin,
                                         Tick oldest, Tick newest);

/// Full sample of a window block into `out` (streams *
/// kFeaturesPerStream values, stream order): each column's variance,
/// value-frequency entropy and autocorrelation at the configured lag.
/// Every feature is computed one column per SIMD lane (sums, a
/// branch-free column sort, then the sorted columns' run entropy), each
/// column in the order the scalar statistics use, so the features are
/// bit-identical to them.  The -p log p table is built once per window
/// length per thread; scratch comes from the thread's arena, so a warm
/// call at a seen length never touches the heap.  Requires rows >
/// autocorr_lag.
void extract_features(const WindowBlock& window, const FeatureConfig& config,
                      std::span<double> out);

/// Human-readable feature names in extraction order, e.g. "d9-d2-ent"
/// (Table V's naming).  `pairs` holds the (tx, rx) sensor indices of each
/// stream, 0-based; names are 1-based like the paper.
std::vector<std::string> feature_names(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

}  // namespace fadewich::core
