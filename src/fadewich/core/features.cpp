#include "fadewich/core/features.hpp"

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/stats/autocorrelation.hpp"
#include "fadewich/stats/descriptive.hpp"
#include "fadewich/stats/histogram.hpp"

namespace fadewich::core {

void append_stream_features(std::span<const double> window,
                            const FeatureConfig& config,
                            std::vector<double>& out) {
  FADEWICH_EXPECTS(window.size() > config.autocorr_lag);
  out.push_back(stats::variance(window));
  out.push_back(stats::value_entropy(window));
  out.push_back(stats::autocorrelation(window, config.autocorr_lag));
}

namespace {

// Batched path for the common case: every stream window has the same
// length.  The windows are transposed into one row-major [rows x
// streams] block so the column-reduction kernels compute all variances
// and lag products SIMD-wide; the per-column accumulation runs in the
// same index order as stats::variance / stats::autocorrelation, so each
// stream's features are bit-identical to append_stream_features.
// Entropy stays scalar — it is a histogram walk, not a reduction.
std::vector<double> extract_features_batched(
    const std::vector<std::vector<double>>& stream_windows,
    std::size_t rows, const FeatureConfig& config) {
  const std::size_t n = stream_windows.size();
  const std::size_t lag = config.autocorr_lag;
  const simd::KernelTable& kt = simd::active_kernels();
  auto& arena = common::ScratchArena::local();
  const auto scratch_frame = arena.frame();
  const std::span<double> data = arena.get<double>(rows * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& window = stream_windows[i];
    for (std::size_t r = 0; r < rows; ++r) data[r * n + i] = window[r];
  }
  const std::span<double> mean = arena.get<double>(n);
  const std::span<double> var = arena.get<double>(n);
  kt.colsum(data.data(), rows, n, mean.data(), n);
  const double rows_d = static_cast<double>(rows);
  for (std::size_t i = 0; i < n; ++i) mean[i] /= rows_d;
  kt.coldev2(data.data(), rows, n, mean.data(), var.data(), n);
  for (std::size_t i = 0; i < n; ++i) var[i] /= rows_d;
  const std::span<double> ac = arena.get<double>(n);
  kt.collagprod(data.data(), rows, lag, n, mean.data(), ac.data(), n);
  const double denom_rows = static_cast<double>(rows - lag);
  for (std::size_t i = 0; i < n; ++i) {
    ac[i] = var[i] == 0.0 ? 0.0 : ac[i] / (denom_rows * var[i]);
  }
  std::vector<double> out;
  out.reserve(n * kFeaturesPerStream);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(var[i]);
    out.push_back(stats::value_entropy(stream_windows[i]));
    out.push_back(ac[i]);
  }
  return out;
}

}  // namespace

std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const FeatureConfig& config) {
  FADEWICH_EXPECTS(!stream_windows.empty());
  const std::size_t rows = stream_windows.front().size();
  bool uniform = rows > config.autocorr_lag;
  for (const auto& window : stream_windows) {
    uniform = uniform && window.size() == rows;
  }
  if (uniform) return extract_features_batched(stream_windows, rows, config);
  // Ragged windows: per-stream scalar path.
  std::vector<double> out;
  out.reserve(stream_windows.size() * kFeaturesPerStream);
  for (const auto& window : stream_windows) {
    append_stream_features(window, config, out);
  }
  return out;
}

std::vector<std::string> feature_names(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  std::vector<std::string> names;
  names.reserve(pairs.size() * kFeaturesPerStream);
  for (const auto& [tx, rx] : pairs) {
    // Appends, not "d" + std::to_string(...): GCC 12 reports a spurious
    // -Wrestrict for operator+ on a string literal and a temporary.
    std::string stem = "d";
    stem += std::to_string(tx + 1);
    stem += "-d";
    stem += std::to_string(rx + 1);
    stem += '-';
    names.push_back(stem + "var");
    names.push_back(stem + "ent");
    names.push_back(stem + "ac");
  }
  return names;
}

}  // namespace fadewich::core
