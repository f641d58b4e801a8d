#include "fadewich/core/normal_profile.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/ml/kde.hpp"

namespace fadewich::core {

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
  sorted_.reserve(config_.capacity);
  sort_ring();
}

void NormalProfile::sort_ring() {
  copy_in_order(sorted_);
  std::sort(sorted_.begin(), sorted_.end());
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

  // Fold the batch in, dropping the oldest values past capacity.  The
  // merge reads the values the pushes overwrite, so it runs first.
  const bool merged = queue_.size() < config_.capacity && merge_batch();
  for (double v : queue_) ring_push(v);
  if (!merged) sort_ring();
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

bool NormalProfile::merge_batch() {
  // The values the batch's pushes will overwrite: the oldest `evict`.
  const std::size_t b = queue_.size();
  const std::size_t evict = ring_size_ + b > config_.capacity
                                ? ring_size_ + b - config_.capacity
                                : 0;
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> gone = arena.get<double>(evict);
  for (std::size_t k = 0; k < evict; ++k) {
    std::size_t slot = ring_head_ + k;
    if (slot >= config_.capacity) slot -= config_.capacity;
    gone[k] = ring_[slot];
  }
  std::sort(gone.begin(), gone.end());
  const std::span<double> batch = arena.get<double>(b);
  std::copy(queue_.begin(), queue_.end(), batch.begin());
  std::sort(batch.begin(), batch.end());

  // One pass over sorted_: skip each evicted value once, merge the batch
  // in front of the first kept value it does not exceed.  Sized for the
  // worst case, so a walk that misses an evicted value cannot overrun.
  const std::span<double> merged = arena.get<double>(sorted_.size() + b);
  std::size_t e = 0;
  std::size_t j = 0;
  std::size_t o = 0;
  for (const double v : sorted_) {
    if (e < evict && v == gone[e]) {
      ++e;
      continue;
    }
    while (j < b && batch[j] < v) merged[o++] = batch[j++];
    merged[o++] = v;
  }
  while (j < b) merged[o++] = batch[j++];
  // Only a value unequal to itself (NaN) can escape the walk; the caller
  // then sorts the ring instead.
  if (e != evict) return false;
  const std::span<const double> kept = merged.first(o);
  sorted_.assign(kept.begin(), kept.end());
  return true;
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

void NormalProfile::pdf_block(std::span<const double> xs,
                              std::span<double> out) const {
  FADEWICH_EXPECTS(initialized());
  ml::kde_pdf_block_sorted(sorted_, bandwidth_, xs, out);
}

void NormalProfile::cdf_block(std::span<const double> xs,
                              std::span<double> out) const {
  FADEWICH_EXPECTS(initialized());
  ml::kde_cdf_block_sorted(sorted_, bandwidth_, xs, out);
}

}  // namespace fadewich::core
