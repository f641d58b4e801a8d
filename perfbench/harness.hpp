// Measurement harness shared by the perfbench workloads: a busy-time
// clock that stops while the input generator runs, fixed-size latency
// histograms, content-identical pass records with fastest-share
// selection, program-only peak memory, output checks, and the one-line
// JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time minus every interval spent between pause() and resume().
/// The generator re-stamps and re-signs the next chunk between those
/// calls, so timestamps on this clock measure the program alone.
class BusyClock {
 public:
  std::int64_t now() const { return wall_ns() - paused_ns_; }
  void pause() { pause_started_ = wall_ns(); }
  void resume() { paused_ns_ += wall_ns() - pause_started_; }

 private:
  std::int64_t paused_ns_ = 0;
  std::int64_t pause_started_ = 0;
};

/// Log-spaced latency histogram (0.5% bins, 50 ns .. ~20 s) with
/// in-bin interpolation, so percentiles keep their digits while the
/// memory per pass stays fixed.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  /// Interpolated quantile in nanoseconds; q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> bins_;
  std::uint64_t count_ = 0;
};

/// One content-identical pass: its busy time, the units it completed
/// (office-ticks), and the per-unit latencies.
struct Pass {
  std::int64_t busy_ns = 0;
  std::uint64_t units = 0;
  LatencyHistogram latency;

  double ns_per_unit() const {
    return units == 0 ? 0.0
                      : static_cast<double>(busy_ns) /
                            static_cast<double>(units);
  }
};

/// Which end of the pass-time distribution a workload's value comes
/// from.  Passes carry identical content, so their times differ only by
/// the state of the shared host.
enum class PassEnd { kFastest, kSlowest };

/// Share of a run's passes its value is taken over: a quarter.
inline constexpr double kPassShare = 0.25;

/// Indices of the `kPassShare` of `passes` at `end`, at least three (or
/// all of them when fewer).
std::vector<std::size_t> select_passes(const std::vector<Pass>& passes,
                                       PassEnd end);

/// Slowest over fastest pass time per unit: a contended run reads high.
double pass_spread(const std::vector<Pass>& passes);

/// End-to-end figures over the selected passes.
struct PassSummary {
  double units_per_s = 0.0;
  double p50_us = 0.0;
  double p999_us = 0.0;
};
PassSummary summarize(const std::vector<Pass>& passes,
                      const std::vector<std::size_t>& selected);

/// Nearest-rank-free percentile (linear interpolation) of a sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Program-only peak memory: the bytes the process holds on the heap
/// (in-use chunks plus mmapped blocks, over every malloc arena), sampled
/// between chunks, minus what it held once the generator had built its
/// inputs.  Heap bytes repeat exactly for identical work; the resident
/// set of a pipeline of about a megabyte moves by whole pages and by
/// where the allocator places things.
class HeapPeak {
 public:
  /// Take the baseline: everything allocated so far is the generator's.
  void reset();
  /// Fold the current heap into the peak (until stop()).
  void sample();
  void stop() { active_ = false; }
  double peak_mb() const;

 private:
  std::size_t base_ = 0;
  std::size_t peak_ = 0;
  bool active_ = true;
};

/// Output checks.  Every failed check is named on stderr; the result
/// line then carries correct=false and the process exits nonzero.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool all_passed() const { return failed_ == 0; }

 private:
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;         // end-to-end (untraced run)
  std::vector<Metric> layer_metrics;   // per-layer ledger (traced run)
  std::vector<Metric> diagnostics;     // printed, never gated
};

/// Print diagnostics, then the metrics the run type reports, then the
/// JSON result as the last line of stdout.
void print_result(const Result& result, bool trace);

}  // namespace perfbench
