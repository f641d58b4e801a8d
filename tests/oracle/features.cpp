#include "oracle/features.hpp"

#include <cmath>
#include <map>

#include "fadewich/common/error.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/stats/autocorrelation.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::oracle {

double value_entropy(std::span<const double> xs) {
  FADEWICH_EXPECTS(!xs.empty());
  std::map<double, std::size_t> freq;
  for (double x : xs) ++freq[x];
  const double n = static_cast<double>(xs.size());
  double h = 0.0;
  for (const auto& [value, count] : freq) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log(p);
  }
  return h;
}

namespace {

std::vector<double> extract_features_batched(
    const std::vector<std::vector<double>>& stream_windows,
    std::size_t rows, const core::FeatureConfig& config) {
  const std::size_t n = stream_windows.size();
  const std::size_t lag = config.autocorr_lag;
  const simd::KernelTable& kt = simd::active_kernels();
  std::vector<double> data(rows * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& window = stream_windows[i];
    for (std::size_t r = 0; r < rows; ++r) data[r * n + i] = window[r];
  }
  std::vector<double> mean(n);
  std::vector<double> var(n);
  kt.colsum(data.data(), rows, n, mean.data(), n);
  const double rows_d = static_cast<double>(rows);
  for (std::size_t i = 0; i < n; ++i) mean[i] /= rows_d;
  kt.coldev2(data.data(), rows, n, mean.data(), var.data(), n);
  for (std::size_t i = 0; i < n; ++i) var[i] /= rows_d;
  std::vector<double> ac(n);
  kt.collagprod(data.data(), rows, lag, n, mean.data(), ac.data(), n);
  const double denom_rows = static_cast<double>(rows - lag);
  for (std::size_t i = 0; i < n; ++i) {
    ac[i] = var[i] == 0.0 ? 0.0 : ac[i] / (denom_rows * var[i]);
  }
  std::vector<double> out;
  out.reserve(n * core::kFeaturesPerStream);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(var[i]);
    out.push_back(value_entropy(stream_windows[i]));
    out.push_back(ac[i]);
  }
  return out;
}

}  // namespace

std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const core::FeatureConfig& config) {
  FADEWICH_EXPECTS(!stream_windows.empty());
  const std::size_t rows = stream_windows.front().size();
  bool uniform = rows > config.autocorr_lag;
  for (const auto& window : stream_windows) {
    uniform = uniform && window.size() == rows;
  }
  if (uniform) return extract_features_batched(stream_windows, rows, config);
  std::vector<double> out;
  out.reserve(stream_windows.size() * core::kFeaturesPerStream);
  for (const auto& window : stream_windows) {
    FADEWICH_EXPECTS(window.size() > config.autocorr_lag);
    out.push_back(stats::variance(window));
    out.push_back(value_entropy(window));
    out.push_back(stats::autocorrelation(window, config.autocorr_lag));
  }
  return out;
}

}  // namespace fadewich::oracle
