// MD's "normal profile": the distribution of summed standard deviations
// observed while the radio environment is quiet, estimated with a
// Gaussian KDE, with the anomaly threshold at its (100 - alpha)th
// percentile (Section IV-C2) and batch self-updating (Section IV-C3,
// Algorithm 1 lines 10-15).
//
// MD consults the threshold on every tick and the profile updates every
// few hundred ticks, so the refit must be cheap.  The profile keeps its
// samples sorted — a fold sorts the batch with a bucket pass, merges it
// in and drops the oldest values past capacity in one pass — and
// evaluates the KDE's CDF with tail pruning: a Gaussian kernel centred
// more than 8 bandwidths below x contributes exactly 1 to the CDF (0
// above), so only the few samples near x need an erf.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::core {

namespace detail {

/// A value of a refit batch and its push sequence number.
struct RefitEntry {
  double value;
  std::uint64_t seq;
};

/// Sorts a refit batch ascending by value, as merge() needs it: numbers
/// first, by one monotone interpolation-bucket pass (one bucket per
/// value between the batch's extremes) plus insertion within buckets,
/// falling back to a comparison sort when a bucket overfills (a cluster
/// with one far outlier) or the range is not finite (an infinity, or
/// extremes more than DBL_MAX apart).  NaN values go last, in batch
/// order.  Equal values keep batch order, so their sequence numbers may
/// come out in another order than std::sort's, but the values do not.
/// Returns false when it took the comparison sort.  Scratch comes from
/// the thread's arena.
bool sort_refit_batch(std::span<RefitEntry> batch);

}  // namespace detail

struct NormalProfileConfig {
  std::size_t capacity = 600;  // samples retained in the profile
  double alpha = 1.0;          // threshold at the (100 - alpha)th pct
  std::size_t batch_size = 150;   // b: update batch length
  double anomalous_fraction = 0.05;  // tau: batch rejected beyond this
  // Algorithm 1's batch self-update.  Disabling freezes the profile at
  // its initial estimate — the ablation showing why the paper updates:
  // the radio baseline drifts and a static threshold goes stale.
  bool self_update = true;
  // Drift guard hardening Algorithm 1: a batch whose re-estimated
  // threshold moves more than this fraction (relative to the last good
  // threshold) is rejected and the profile rolled back to its last good
  // state, so a corrupted or adversarial batch sequence cannot poison MD
  // through a chain of individually-plausible updates.  0 disables the
  // guard (the paper's unguarded behaviour).
  double max_drift_fraction = 0.0;
};

class NormalProfile {
 public:
  explicit NormalProfile(NormalProfileConfig config = {});

  /// Seed the profile with the initial quiet-period observations and
  /// compute the first threshold.  Requires at least 10 samples.
  void initialize(std::vector<double> samples);

  bool initialized() const { return ring_size_ != 0; }

  /// The (100 - alpha)th percentile of the estimated distribution.
  /// Requires initialized().
  double threshold() const { return threshold_; }

  /// Offer one observation for the self-update queue (Algorithm 1 line
  /// 6): every observed s_t is queued; when the queue reaches b entries it
  /// is either folded into the profile (mostly-normal batch) or discarded
  /// (anomalous batch).  Returns true if the profile was re-estimated.
  bool offer(double value);

  /// KDE evaluated on the current profile (for diagnostics / Fig. 2).
  double pdf(double x) const;
  double cdf(double x) const;

  std::size_t size() const { return ring_size_; }
  double bandwidth() const { return bandwidth_; }
  /// Retained samples in insertion order (oldest first), as persisted.
  std::vector<double> samples_snapshot() const {
    std::vector<double> out;
    copy_in_order(out);
    return out;
  }
  std::vector<double> queue_snapshot() const { return queue_; }
  /// The retained samples sorted ascending: the array the KDE, the
  /// bandwidth and the threshold are computed over.
  std::span<const double> sorted_samples() const { return sorted_; }
  const NormalProfileConfig& config() const { return config_; }

  /// Restore a previously persisted profile: `samples` in insertion
  /// order (>= 10) plus the pending update queue.  The threshold and
  /// bandwidth are re-derived, so a restored profile is bit-identical to
  /// the one that was saved.  Resets the drift guard's last-good anchor
  /// and counters, like initialize().
  void restore(std::vector<double> samples, std::vector<double> queue);

  /// Batches rejected by the drift guard so far.
  std::uint64_t drift_rollbacks() const { return drift_rollbacks_; }
  /// Batches folded in (and kept) so far.
  std::uint64_t updates_accepted() const { return updates_accepted_; }
  /// The threshold of the last good (committed) estimate.
  double last_good_threshold() const { return last_good_threshold_; }

 private:
  void merge(std::span<const double> values);
  void refit();
  void commit_last_good();
  void ring_reset(std::span<const double> samples);
  void ring_push(double value);
  void copy_in_order(std::vector<double>& out) const;

  NormalProfileConfig config_;
  // Retained samples as a flat fixed ring (oldest at ring_head_), sized
  // once at initialize(): MD offers one sample per tick and folds a
  // batch every b ticks, and neither may touch the heap in steady state
  // (see the counting-allocator test over FadewichSystem::step).
  std::vector<double> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  // Same contents, sorted, with each value's push sequence number in a
  // parallel array (never persisted).  A fold merges the sorted batch in
  // and drops the entries older than the newest `capacity` pushes in one
  // pass (merge); initialize, restore and a drift rollback merge their
  // samples into an emptied state, numbered from 0 in ring order.
  std::vector<double> sorted_;
  std::vector<std::uint64_t> sorted_seq_;
  std::uint64_t pushed_ = 0;  // sequence number of the next push
  std::vector<double> queue_;    // pending update batch Q
  double bandwidth_ = 1.0;
  double threshold_ = 0.0;
  // Drift guard state: the last estimate that passed the guard.
  std::vector<double> last_good_samples_;
  double last_good_threshold_ = 0.0;
  std::uint64_t drift_rollbacks_ = 0;
  std::uint64_t updates_accepted_ = 0;
};

}  // namespace fadewich::core
