#include "fadewich/core/features.hpp"

#include <algorithm>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/stats/histogram.hpp"

namespace fadewich::core {

std::pair<Tick, Tick> feature_tick_range(const TickRate& rate,
                                         Seconds t_delta, Tick window_begin,
                                         Tick oldest, Tick newest) {
  FADEWICH_EXPECTS(t_delta > 0.0);
  const Tick first = std::max(window_begin, oldest);
  const Tick last =
      std::min(first + rate.to_ticks_ceil(t_delta) - 1, newest);
  FADEWICH_EXPECTS(last >= first);
  return {first, last};
}

namespace {

// stats::plogp_table(rows) for the last window length this thread saw:
// RE reads windows of one length, so the table's logs are paid once per
// length, not per classification.  The buffer only grows, so warm calls
// never touch the heap.
std::span<const double> plogp_for(std::size_t rows) {
  thread_local std::vector<double> table;
  thread_local std::size_t table_rows = 0;
  if (table_rows != rows) {
    table.resize(rows + 1);
    stats::plogp_table(rows, table);
    table_rows = rows;
  }
  return {table.data(), rows + 1};
}

}  // namespace

void extract_features(const WindowBlock& window, const FeatureConfig& config,
                      std::span<double> out) {
  // The column kernels compute every variance and lag product SIMD-wide,
  // accumulating each column in the same index order as stats::variance
  // / stats::autocorrelation, sort every column of a copy at once
  // (branch-free min/max exchanges), then count every sorted column's
  // runs one column per lane (stats::sorted_value_entropy's order), with
  // the -p log p terms tabulated once per window length.
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
  const std::span<double> sorted = arena.get<double>(rows * n);
  std::copy(window.data.begin(), window.data.end(), sorted.begin());
  kt.colsort(sorted.data(), rows, n, n);
  const std::span<double> entropy = arena.get<double>(n);
  kt.colentropy(sorted.data(), rows, n, plogp_for(rows).data(),
                entropy.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i * kFeaturesPerStream] = var[i];
    out[i * kFeaturesPerStream + 1] = entropy[i];
    out[i * kFeaturesPerStream + 2] =
        var[i] == 0.0 ? 0.0 : ac[i] / (denom_rows * var[i]);
  }
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
