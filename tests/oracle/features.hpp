// Test oracle: RE feature extraction as the library computed it before
// the window-block path, with the entropy feature counted through a
// std::map of distinct values, and the scalar per-stream features.
//
// core::extract_features sorts each column of a block and counts runs
// instead; the differential tests require its outputs to equal these bit
// for bit.  pack_windows is how those tests (and the benches) feed
// per-stream windows to the block extraction.
#pragma once

#include <span>
#include <vector>

#include "fadewich/core/features.hpp"

namespace fadewich::oracle {

/// Value-frequency entropy through std::map<double, size_t>: distinct
/// values in ascending order, each subtracting p * log(p).
double value_entropy(std::span<const double> xs);

/// The features of one equal-length window per stream, transposed into
/// a block for the column kernels; entropy is value_entropy above.
std::vector<double> extract_features(
    const std::vector<std::vector<double>>& stream_windows,
    const core::FeatureConfig& config);

/// Features of one stream window from the scalar statistics
/// (stats::variance, stats::value_entropy, stats::autocorrelation): the
/// per-column reference for core::extract_features.  Requires a window
/// longer than the autocorrelation lag.
void append_stream_features(std::span<const double> window,
                            const core::FeatureConfig& config,
                            std::vector<double>& out);

/// Equal-length per-stream windows as one row-major block over
/// `storage` (the layout core::extract_features reads).
core::WindowBlock pack_windows(
    const std::vector<std::vector<double>>& stream_windows,
    std::vector<double>& storage);

/// core::extract_features of the windows, packed by pack_windows.
std::vector<double> block_features(
    const std::vector<std::vector<double>>& stream_windows,
    const core::FeatureConfig& config);

}  // namespace fadewich::oracle
