#include "fadewich/core/normal_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/ml/kde.hpp"

namespace fadewich::core {

namespace detail {

namespace {

// Past this many values in one bucket the insertion pass could go
// quadratic (a clustered batch with one far outlier lands almost
// entirely in one bucket), so the batch takes the comparison sort.
constexpr std::size_t kMaxBucket = 32;

// Counting pass over one bucket per value, then insertion: true when
// `numbers` (NaN-free, lo / hi their extremes) ended up sorted, false
// when the range or a bucket's fill calls for the comparison sort.
bool bucket_sort(std::span<RefitEntry> numbers, double lo, double hi) {
  const std::size_t m = numbers.size();
  if (m < 2 || lo == hi) return true;  // already in order
  const double range = hi - lo;
  const double scale = static_cast<double>(m) / range;
  if (!std::isfinite(range) || !std::isfinite(scale)) return false;
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<std::uint32_t> bucket = arena.get<std::uint32_t>(m);
  const std::span<std::uint32_t> start = arena.get<std::uint32_t>(m + 1);
  std::fill(start.begin(), start.end(), 0u);
  // (v - lo) * scale is monotone in v and lies in [0, m] up to rounding,
  // so the clamp below keeps the conversion in range.
  const double top = static_cast<double>(m - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const double t = (numbers[i].value - lo) * scale;
    const auto b = static_cast<std::uint32_t>(t < top ? t : top);
    bucket[i] = b;
    if (++start[b + 1] > kMaxBucket) return false;
  }
  for (std::size_t b = 0; b < m; ++b) start[b + 1] += start[b];
  const std::span<RefitEntry> out = arena.get<RefitEntry>(m);
  for (std::size_t i = 0; i < m; ++i) out[start[bucket[i]]++] = numbers[i];
  // Only values sharing a bucket can be out of order now.
  for (std::size_t i = 1; i < m; ++i) {
    const RefitEntry e = out[i];
    std::size_t j = i;
    for (; j > 0 && e.value < out[j - 1].value; --j) out[j] = out[j - 1];
    out[j] = e;
  }
  std::copy(out.begin(), out.end(), numbers.begin());
  return true;
}

}  // namespace

bool sort_refit_batch(std::span<RefitEntry> batch) {
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<RefitEntry> nans = arena.get<RefitEntry>(batch.size());
  std::size_t numbers = 0;
  std::size_t nan_count = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const RefitEntry e : batch) {
    if (std::isnan(e.value)) {
      nans[nan_count++] = e;
    } else {
      batch[numbers++] = e;
      lo = std::min(lo, e.value);
      hi = std::max(hi, e.value);
    }
  }
  std::copy_n(nans.begin(), nan_count, batch.begin() + numbers);
  const std::span<RefitEntry> finite = batch.first(numbers);
  if (bucket_sort(finite, lo, hi)) return true;
  std::sort(finite.begin(), finite.end(),
            [](const RefitEntry& x, const RefitEntry& y) {
              return x.value < y.value;
            });
  return false;
}

}  // namespace detail

// The pruned-CDF/PDF kernels live in ml/kde.hpp (kde_*_sorted) and are
// shared with ml::GaussianKde, so the profile and the KDE evaluate the
// identical tail-pruned sums over one sorted flat array.

NormalProfile::NormalProfile(NormalProfileConfig config) : config_(config) {
  FADEWICH_EXPECTS(config_.capacity >= 20);
  FADEWICH_EXPECTS(config_.alpha > 0.0 && config_.alpha < 50.0);
  FADEWICH_EXPECTS(config_.batch_size >= 1);
  FADEWICH_EXPECTS(config_.anomalous_fraction > 0.0 &&
                   config_.anomalous_fraction <= 1.0);
  FADEWICH_EXPECTS(config_.max_drift_fraction >= 0.0);
}

void NormalProfile::ring_reset(std::span<const double> samples) {
  // Size the ring once; steady-state pushes and folds only overwrite.
  ring_.resize(config_.capacity);
  ring_head_ = 0;
  ring_size_ = 0;
  // Keep the most recent `capacity` values in insertion order, exactly
  // as the eviction-on-push path would have.
  const std::size_t skip =
      samples.size() > config_.capacity ? samples.size() - config_.capacity
                                        : 0;
  for (std::size_t i = skip; i < samples.size(); ++i) {
    ring_[ring_size_++] = samples[i];
  }
  // A fresh sorted state: the samples merge in as one batch, renumbered
  // from 0 in insertion order.
  sorted_.reserve(config_.capacity);
  sorted_seq_.reserve(config_.capacity);
  sorted_.clear();
  sorted_seq_.clear();
  pushed_ = 0;
  merge(samples);
}

void NormalProfile::ring_push(double value) {
  if (ring_size_ < config_.capacity) {
    std::size_t slot = ring_head_ + ring_size_;
    if (slot >= config_.capacity) slot -= config_.capacity;
    ring_[slot] = value;
    ++ring_size_;
  } else {
    ring_[ring_head_] = value;  // overwrite the oldest
    ++ring_head_;
    if (ring_head_ == config_.capacity) ring_head_ = 0;
  }
}

void NormalProfile::copy_in_order(std::vector<double>& out) const {
  out.resize(ring_size_);
  const std::size_t tail =
      std::min(ring_size_, config_.capacity - ring_head_);
  std::copy_n(ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
              tail, out.begin());
  std::copy_n(ring_.begin(), ring_size_ - tail,
              out.begin() + static_cast<std::ptrdiff_t>(tail));
}

void NormalProfile::initialize(std::vector<double> samples) {
  FADEWICH_EXPECTS(samples.size() >= 10);
  ring_reset(samples);
  queue_.clear();
  refit();
  drift_rollbacks_ = 0;
  updates_accepted_ = 0;
  commit_last_good();
}

void NormalProfile::restore(std::vector<double> samples,
                            std::vector<double> queue) {
  if (samples.size() < 10) {
    throw Error("profile state has fewer than 10 samples");
  }
  ring_reset(samples);
  queue_ = std::move(queue);
  refit();
  drift_rollbacks_ = 0;
  updates_accepted_ = 0;
  commit_last_good();
}

void NormalProfile::commit_last_good() {
  copy_in_order(last_good_samples_);
  last_good_threshold_ = threshold_;
}

bool NormalProfile::offer(double value) {
  FADEWICH_EXPECTS(initialized());
  if (!config_.self_update) return false;
  queue_.push_back(value);
  if (queue_.size() < config_.batch_size) return false;

  // is_anomalous(Q, tau): fraction of queued values above the current
  // threshold.
  std::size_t above = 0;
  for (double v : queue_) {
    if (v >= threshold_) ++above;
  }
  const bool anomalous_batch =
      static_cast<double>(above) >=
      config_.anomalous_fraction * static_cast<double>(queue_.size());

  if (anomalous_batch) {
    queue_.clear();
    return false;
  }

  // Fold the batch in, dropping the oldest values past capacity.
  for (double v : queue_) ring_push(v);
  merge(queue_);
  queue_.clear();
  refit();

  // Drift guard: a batch that passed the anomalous-fraction test can
  // still shift the threshold far from the last committed estimate (a
  // slow poisoning sequence does exactly this).  Reject the excursion
  // and roll back to the last good profile.
  if (config_.max_drift_fraction > 0.0) {
    const double scale = std::max(std::abs(last_good_threshold_), 1e-12);
    if (std::abs(threshold_ - last_good_threshold_) >
        config_.max_drift_fraction * scale) {
      ring_reset(last_good_samples_);
      refit();
      ++drift_rollbacks_;
      return false;
    }
  }
  ++updates_accepted_;
  commit_last_good();
  return true;
}

void NormalProfile::merge(std::span<const double> values) {
  // Pushing `values` evicts every entry older than the newest `capacity`
  // pushes: those numbered below `cutoff`, including a batch's own
  // oldest values when it is longer than the ring.
  const std::size_t b = values.size();
  const std::uint64_t cutoff =
      pushed_ + b > config_.capacity ? pushed_ + b - config_.capacity : 0;
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<detail::RefitEntry> batch =
      arena.get<detail::RefitEntry>(b);
  std::size_t m = 0;
  for (std::size_t j = 0; j < b; ++j) {
    if (pushed_ + j >= cutoff) batch[m++] = {values[j], pushed_ + j};
  }
  detail::sort_refit_batch(batch.first(m));

  // One pass over sorted_: drop the evicted entries, merge the batch in
  // front of the first kept value it does not exceed.
  const std::span<detail::RefitEntry> merged =
      arena.get<detail::RefitEntry>(sorted_.size() + m);
  std::size_t j = 0;
  std::size_t o = 0;
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (sorted_seq_[i] < cutoff) continue;
    const detail::RefitEntry kept{sorted_[i], sorted_seq_[i]};
    while (j < m && batch[j].value < kept.value) merged[o++] = batch[j++];
    merged[o++] = kept;
  }
  while (j < m) merged[o++] = batch[j++];
  sorted_.resize(o);
  sorted_seq_.resize(o);
  for (std::size_t k = 0; k < o; ++k) {
    sorted_[k] = merged[k].value;
    sorted_seq_[k] = merged[k].seq;
  }
  pushed_ += b;
}

void NormalProfile::refit() {
  bandwidth_ = ml::GaussianKde::silverman_bandwidth(sorted_);

  // Invert the CDF at p = 1 - alpha/100 by bisection on the pruned CDF.
  threshold_ = ml::kde_percentile_sorted(sorted_, bandwidth_,
                                         1.0 - config_.alpha / 100.0,
                                         /*max_iterations=*/80,
                                         /*rel_tol=*/1e-9);
}

double NormalProfile::pdf(double x) const {
  FADEWICH_EXPECTS(initialized());
  return ml::kde_pdf_sorted(sorted_, bandwidth_, x);
}

double NormalProfile::cdf(double x) const {
  FADEWICH_EXPECTS(initialized());
  return ml::kde_cdf_sorted(sorted_, bandwidth_, x);
}

}  // namespace fadewich::core
