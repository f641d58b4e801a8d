#include "fadewich/stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins,
                     OutlierPolicy policy)
    : lo_(lo),
      hi_(hi),
      interior_(bins),
      policy_(policy),
      counts_(policy == OutlierPolicy::kOutlierBins ? bins + 2 : bins, 0) {
  FADEWICH_EXPECTS(bins >= 1);
  FADEWICH_EXPECTS(lo < hi);
}

Histogram Histogram::from_data(std::span<const double> xs, std::size_t bins) {
  FADEWICH_EXPECTS(!xs.empty());
  double lo = min(xs);
  double hi = max(xs);
  if (lo == hi) {
    // Degenerate data: widen symmetrically so the single value maps to a
    // well-defined bin.
    lo -= 0.5;
    hi += 0.5;
  }
  Histogram h(lo, hi, bins);
  h.add_all(xs);
  return h;
}

void Histogram::add(double x) {
  if (x < lo_) ++underflow_;
  if (x > hi_) ++overflow_;
  ++counts_[bin_of(x)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

std::size_t Histogram::count(std::size_t bin) const {
  FADEWICH_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

std::size_t Histogram::bin_of(double x) const {
  if (policy_ == OutlierPolicy::kOutlierBins) {
    if (x < lo_) return interior_;       // underflow bin
    if (x > hi_) return interior_ + 1;   // overflow bin
  }
  const double clamped = std::clamp(x, lo_, hi_);
  const double width = (hi_ - lo_) / static_cast<double>(interior_);
  auto bin = static_cast<std::size_t>((clamped - lo_) / width);
  return std::min(bin, interior_ - 1);
}

double Histogram::bin_center(std::size_t bin) const {
  FADEWICH_EXPECTS(bin < interior_);
  const double width = (hi_ - lo_) / static_cast<double>(interior_);
  return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

std::vector<double> Histogram::probabilities() const {
  FADEWICH_EXPECTS(total_ > 0);
  std::vector<double> p(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return p;
}

double Histogram::entropy() const {
  FADEWICH_EXPECTS(total_ > 0);
  double h = 0.0;
  for (std::size_t c : counts_) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total_);
    h -= p * std::log(p);
  }
  return h;
}

double value_entropy(std::span<const double> xs) {
  FADEWICH_EXPECTS(!xs.empty());
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> sorted = arena.get<double>(xs.size());
  std::copy(xs.begin(), xs.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  const std::span<double> plogp = arena.get<double>(xs.size() + 1);
  plogp_table(xs.size(), plogp);
  return sorted_value_entropy(sorted, plogp);
}

double sorted_value_entropy(std::span<const double> sorted,
                            std::span<const double> plogp) {
  const std::size_t n = sorted.size();
  FADEWICH_EXPECTS(n >= 1 && plogp.size() == n + 1);
  // A run's term is subtracted where the next run starts; elsewhere the
  // index is 0 and plogp[0] = +0 leaves h unchanged, so the loop needs
  // no data-dependent branch.
  double h = 0.0;
  std::size_t count = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t boundary = sorted[i] != sorted[i - 1] ? 1 : 0;
    h -= plogp[count * boundary];
    count = 1 + count * (1 - boundary);
  }
  return h - plogp[count];
}

void plogp_table(std::size_t n, std::span<double> out) {
  FADEWICH_EXPECTS(n >= 1 && out.size() == n + 1);
  const double nd = static_cast<double>(n);
  out[0] = 0.0;
  for (std::size_t c = 1; c <= n; ++c) {
    const double p = static_cast<double>(c) / nd;
    out[c] = p * std::log(p);
  }
}

}  // namespace fadewich::stats
