#include "fadewich/core/features.hpp"

#include <algorithm>

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

void extract_features(const WindowBlock& window, const FeatureConfig& config,
                      std::span<double> out) {
  // The column kernels compute every variance and lag product SIMD-wide,
  // accumulating each column in the same index order as stats::variance
  // / stats::autocorrelation, and sort every column of a copy at once
  // (branch-free min/max exchanges).  Entropy then counts each sorted
  // column's runs (stats::sorted_value_entropy), with the -p log p terms
  // tabulated once for the window length.
  const std::size_t rows = window.rows;
  const std::size_t n = window.streams;
  const std::size_t lag = config.autocorr_lag;
  FADEWICH_EXPECTS(n >= 1 && rows > lag);
  FADEWICH_EXPECTS(window.data.size() == rows * n);
  FADEWICH_EXPECTS(out.size() == n * kFeaturesPerStream);
  const double* data = window.data.data();
  const simd::KernelTable& kt = simd::active_kernels();
  auto& arena = common::ScratchArena::local();
  const auto scratch_frame = arena.frame();
  const std::span<double> mean = arena.get<double>(n);
  const std::span<double> var = arena.get<double>(n);
  kt.colsum(data, rows, n, mean.data(), n);
  const double rows_d = static_cast<double>(rows);
  for (std::size_t i = 0; i < n; ++i) mean[i] /= rows_d;
  kt.coldev2(data, rows, n, mean.data(), var.data(), n);
  for (std::size_t i = 0; i < n; ++i) var[i] /= rows_d;
  const std::span<double> ac = arena.get<double>(n);
  kt.collagprod(data, rows, lag, n, mean.data(), ac.data(), n);
  const double denom_rows = static_cast<double>(rows - lag);
  const std::span<double> plogp = arena.get<double>(rows + 1);
  stats::plogp_table(rows, plogp);
  const std::span<double> sorted = arena.get<double>(rows * n);
  std::copy(window.data.begin(), window.data.end(), sorted.begin());
  kt.colsort(sorted.data(), rows, n, n);
  const std::span<double> column = arena.get<double>(rows);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < rows; ++r) column[r] = sorted[r * n + i];
    out[i * kFeaturesPerStream] = var[i];
    out[i * kFeaturesPerStream + 1] =
        stats::sorted_value_entropy(column, plogp);
    out[i * kFeaturesPerStream + 2] =
        var[i] == 0.0 ? 0.0 : ac[i] / (denom_rows * var[i]);
  }
}

std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const FeatureConfig& config) {
  FADEWICH_EXPECTS(!stream_windows.empty());
  const std::size_t rows = stream_windows.front().size();
  const std::size_t n = stream_windows.size();
  bool uniform = rows > config.autocorr_lag;
  for (const auto& window : stream_windows) {
    uniform = uniform && window.size() == rows;
  }
  std::vector<double> out;
  if (!uniform) {
    out.reserve(n * kFeaturesPerStream);
    for (const auto& window : stream_windows) {
      append_stream_features(window, config, out);
    }
    return out;
  }
  auto& arena = common::ScratchArena::local();
  const auto scratch_frame = arena.frame();
  const std::span<double> data = arena.get<double>(rows * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& window = stream_windows[i];
    for (std::size_t r = 0; r < rows; ++r) data[r * n + i] = window[r];
  }
  out.resize(n * kFeaturesPerStream);
  extract_features(WindowBlock{data, rows, n}, config, out);
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
