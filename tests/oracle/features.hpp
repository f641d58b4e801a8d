// Test oracle: RE feature extraction as the library computed it before
// the window-block path, with the entropy feature counted through a
// std::map of distinct values.
//
// core::extract_features (block and vector forms) and
// stats::value_entropy sort each window and count runs instead; the
// differential tests require their outputs to equal these bit for bit.
#pragma once

#include <span>
#include <vector>

#include "fadewich/core/features.hpp"

namespace fadewich::oracle {

/// Value-frequency entropy through std::map<double, size_t>: distinct
/// values in ascending order, each subtracting p * log(p).
double value_entropy(std::span<const double> xs);

/// The features of one window per stream: equal-length windows are
/// transposed into a block for the column kernels, ragged ones use the
/// scalar per-stream statistics; entropy is value_entropy above.
std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const core::FeatureConfig& config);

}  // namespace fadewich::oracle
