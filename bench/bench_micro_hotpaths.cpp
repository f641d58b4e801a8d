// Microbenchmarks (google-benchmark) for the hot paths a real deployment
// exercises continuously: channel sampling, MD per-tick processing, KDE
// threshold re-estimation, RE feature extraction, and SVM training.
//
// Report mode: `bench_micro_hotpaths [--fast] BENCH_hotpaths.json` runs
// the scalar-vs-batched comparison suite instead (KDE pdf sweep, SVM
// decision, channel sample_block, full FadewichSystem::step) and writes
// the stamped JSON the CI perf gate diffs against the checked-in
// baseline (tools/check_perf_regression.py).  FADEWICH_BENCH_HANDICAP
// names one hot path whose *batched* side runs twice — a synthetic 2x
// regression for verifying the gate actually fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fadewich/common/flat_matrix.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/core/system.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/ml/svm.hpp"
#include "fadewich/core/features.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/core/normal_profile.hpp"
#include "fadewich/core/stream_history.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/ml/kde.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/rf/channel.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/sim/schedule.hpp"
#include "fadewich/sim/simulator.hpp"
#include "oracle/features.hpp"
#include "oracle/kde_percentile.hpp"
#include "oracle/multiclass_svm.hpp"

namespace fadewich {
namespace {

void BM_ChannelSampleNineSensors(benchmark::State& state) {
  const rf::FloorPlan plan = rf::paper_office();
  rf::ChannelMatrix channel(plan.sensors, rf::ChannelConfig{}, 1);
  const std::vector<rf::BodyState> bodies{
      {{2.0, 1.5}, 1.4}, {{4.3, 2.5}, 0.0}, {{0.7, 0.7}, 0.0}};
  // The row buffer is deliberately reused across iterations: a real
  // deployment overwrites the same staging row every tick, and clobbering
  // it keeps the compiler from caching results between samples.  For bulk
  // throughput (and the reuse-free code path) see BM_ChannelSampleBlock.
  std::vector<double> row(channel.stream_count());
  for (auto _ : state) {
    channel.sample(bodies, row);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(row.size()));
}
BENCHMARK(BM_ChannelSampleNineSensors);

// Batched sampling, serial (1 thread) vs parallel (arg threads): the same
// 4096-tick block of nine-sensor office activity.  items = stream-samples,
// so items/sec is directly comparable across thread counts.
void BM_ChannelSampleBlock(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const rf::FloorPlan plan = rf::paper_office();
  rf::ChannelMatrix channel(plan.sensors, rf::ChannelConfig{}, 1);
  constexpr std::size_t kTicks = 4096;
  std::vector<std::vector<rf::BodyState>> bodies(kTicks);
  for (std::size_t t = 0; t < kTicks; ++t) {
    const double x = 0.5 + 5.0 * static_cast<double>(t % 512) / 512.0;
    bodies[t] = {{{x, 1.5}, 1.4}, {{4.3, 2.5}, 0.0}, {{0.7, 0.7}, 0.0}};
  }
  exec::ThreadPool pool(threads);
  std::vector<double> block(kTicks * channel.stream_count());
  for (auto _ : state) {
    channel.sample_block(bodies, block, &pool);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_ChannelSampleBlock)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Whole-pipeline parallelism: a short multi-day week, serial pool vs
// arg-thread pool.  Outputs are bit-identical (see DeterminismTest); only
// the wall time may differ.
void BM_SimulateWeek(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const rf::FloorPlan plan = rf::paper_office();
  sim::DayScheduleConfig day;
  day.day_length = 10.0 * 60.0;
  day.calibration = 2.0 * 60.0;
  day.departure_window = 3.0 * 60.0;
  day.min_breaks = 1;
  day.max_breaks = 1;
  day.break_min = 60.0;
  day.break_max = 2.0 * 60.0;
  constexpr std::size_t kDays = 4;
  Rng rng(42);
  const sim::WeekSchedule week = sim::generate_week_schedule(
      day, plan.workstation_count(), kDays, rng);
  sim::SimulationConfig config;
  config.seed = 42;
  exec::ThreadPool pool(threads);
  std::int64_t items = 0;
  for (auto _ : state) {
    const sim::Recording rec = sim::simulate_week(plan, week, config, &pool);
    items = static_cast<std::int64_t>(rec.tick_count()) *
            static_cast<std::int64_t>(rec.stream_count());
    benchmark::DoNotOptimize(rec.tick_count());
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_SimulateWeek)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_MovementDetectorStep(benchmark::State& state) {
  const auto streams = static_cast<std::size_t>(state.range(0));
  core::MovementDetectorConfig config;
  config.calibration = 10.0;
  core::MovementDetector md(streams, 5.0, config);
  Rng rng(7);
  std::vector<double> row(streams);
  // Warm through calibration.
  for (int i = 0; i < 100; ++i) {
    for (auto& v : row) v = rng.normal(-60.0, 1.0);
    md.step(row);
  }
  for (auto _ : state) {
    for (auto& v : row) v = rng.normal(-60.0, 1.0);
    benchmark::DoNotOptimize(md.step(row));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(streams));
}
BENCHMARK(BM_MovementDetectorStep)->Arg(6)->Arg(20)->Arg(72);

void BM_NormalProfileReestimate(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 600; ++i) samples.push_back(rng.normal(50.0, 5.0));
  core::NormalProfileConfig config;
  config.batch_size = 150;
  for (auto _ : state) {
    core::NormalProfile profile(config);
    profile.initialize(samples);
    benchmark::DoNotOptimize(profile.threshold());
  }
}
BENCHMARK(BM_NormalProfileReestimate);

void BM_KdePercentile(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 600; ++i) samples.push_back(rng.normal(50.0, 5.0));
  const ml::GaussianKde kde(samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.percentile(0.99));
  }
}
BENCHMARK(BM_KdePercentile);

void BM_FeatureExtraction72Streams(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::vector<double>> windows(72);
  for (auto& w : windows) {
    for (int i = 0; i < 23; ++i) {
      w.push_back(std::round(rng.normal(-60.0, 2.0)));
    }
  }
  const core::FeatureConfig config;
  std::vector<double> storage;
  const core::WindowBlock block = oracle::pack_windows(windows, storage);
  std::vector<double> out(windows.size() * core::kFeaturesPerStream);
  for (auto _ : state) {
    core::extract_features(block, config, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureExtraction72Streams);

// Observability primitive cost: one observation into a registry's
// sharded histogram on the instrumented (enabled) path.
void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Histogram histogram =
      obs::registry().histogram("bench_obs_histogram_seconds", "bench");
  double v = 1e-6;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_SvmTrainPaperScale(benchmark::State& state) {
  // ~110 samples x 216 features, 4 classes: RE's training workload.
  Rng rng(11);
  ml::Dataset data;
  for (int i = 0; i < 110; ++i) {
    const int label = i % 4;
    std::vector<double> x(216);
    for (std::size_t f = 0; f < x.size(); ++f) {
      x[f] = rng.normal(f % 4 == static_cast<std::size_t>(label) ? 2.0
                                                                 : 0.0,
                        1.0);
    }
    data.add(std::move(x), label);
  }
  for (auto _ : state) {
    ml::MulticlassSvm svm;
    svm.train(data);
    benchmark::DoNotOptimize(svm.trained());
  }
}
BENCHMARK(BM_SvmTrainPaperScale);

// --- BENCH_hotpaths.json report mode ---------------------------------

/// Best-of-`reps` wall time of fn() divided by `ops`, in nanoseconds.
template <typename F>
double time_best_ns_per_op(int reps, std::int64_t ops, F&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    if (r == 0 || ns < best) best = ns;
  }
  return best / static_cast<double>(ops);
}

/// 2 when FADEWICH_BENCH_HANDICAP selects this hot path, else 1: the
/// batched side repeats its work that many times, simulating a kernel
/// regression the perf gate must catch.
int handicap(const char* name) {
  const char* env = std::getenv("FADEWICH_BENCH_HANDICAP");
  return env != nullptr && std::string(env) == name ? 2 : 1;
}

struct HotpathPair {
  std::string name;
  std::int64_t ops = 0;
  double scalar_ns = 0.0;
  double batched_ns = 0.0;
  double speedup() const { return scalar_ns / batched_ns; }
};

// Gaussian-KDE profile sweep (Fig. 2 curves, threshold diagnostics):
// per-query pdf() versus one pdf_block() pass over the same grid.
HotpathPair bench_kde_pdf_sweep() {
  const bool fast = bench::fast_mode();
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < (fast ? 400 : 1200); ++i) {
    samples.push_back(rng.normal(50.0, 5.0));
  }
  const ml::GaussianKde kde(samples);
  const std::size_t queries = fast ? 4096 : 16384;
  std::vector<double> xs(queries);
  std::vector<double> out(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    xs[i] = 20.0 + 60.0 * static_cast<double>(i) /
                       static_cast<double>(queries - 1);
  }
  const int reps = fast ? 5 : 10;
  const int factor = handicap("kde_pdf_sweep");
  HotpathPair result{"kde_pdf_sweep",
                     static_cast<std::int64_t>(queries), 0.0, 0.0};
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    double acc = 0.0;
    for (const double x : xs) acc += kde.pdf(x);
    benchmark::DoNotOptimize(acc);
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) kde.pdf_block(xs, out);
    benchmark::DoNotOptimize(out.data());
  });
  return result;
}

// SVM inference at paper scale: per-query decision() versus one
// decision_block() pass streaming the support-vector matrix per batch.
HotpathPair bench_svm_decision() {
  const bool fast = bench::fast_mode();
  const std::size_t n = fast ? 80 : 120;
  const std::size_t dim = fast ? 64 : 216;
  const std::size_t queries = 512;
  Rng rng(11);
  std::vector<std::vector<double>> features(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 2 == 0 ? 1 : -1;
    features[i].resize(dim);
    for (std::size_t f = 0; f < dim; ++f) {
      features[i][f] = rng.normal(labels[i] > 0 ? 0.5 : -0.5, 1.0);
    }
  }
  ml::BinarySvm svm;
  svm.train(features, labels);

  common::FlatMatrix qs(queries, dim);
  std::vector<std::vector<double>> q_rows(queries,
                                          std::vector<double>(dim));
  for (std::size_t r = 0; r < queries; ++r) {
    for (std::size_t f = 0; f < dim; ++f) {
      const double v = rng.normal(0.0, 1.0);
      qs.at(r, f) = v;
      q_rows[r][f] = v;
    }
  }
  std::vector<double> out(queries);
  const int reps = fast ? 5 : 10;
  const int factor = handicap("svm_decision");
  HotpathPair result{"svm_decision",
                     static_cast<std::int64_t>(queries), 0.0, 0.0};
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    double acc = 0.0;
    for (const auto& row : q_rows) acc += svm.decision(row);
    benchmark::DoNotOptimize(acc);
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) svm.decision_block(qs, out);
    benchmark::DoNotOptimize(out.data());
  });
  return result;
}

// RE's Rule-1 decision on an office-scale model: 4 classes, 216
// features, 40 training samples, one query per call as the live path
// classifies.  Old: the machine-major tally (oracle/multiclass_svm.hpp),
// every pairwise machine streaming its own support rows.  New:
// MulticlassSvm's one kernel row over the shared support-vector pool.
// Both must yield the same labels.
HotpathPair bench_re_decision() {
  const bool fast = bench::fast_mode();
  constexpr std::size_t kDim = 216;
  constexpr int kClasses = 4;
  constexpr int kPerClass = 10;
  Rng rng(37);
  ml::Dataset data;
  for (int label = 0; label < kClasses; ++label) {
    for (int i = 0; i < kPerClass; ++i) {
      std::vector<double> x(kDim);
      for (std::size_t d = 0; d < kDim; ++d) {
        x[d] = rng.normal(d % kClasses == static_cast<std::size_t>(label)
                              ? 0.4
                              : 0.0,
                          1.0);
      }
      data.add(std::move(x), label);
    }
  }
  ml::MulticlassSvm svm;
  svm.train(data);
  const oracle::MachineMajorSvm old_svm(svm.export_state(), ml::SvmConfig{});

  const std::size_t queries = fast ? 256 : 1024;
  std::vector<double> qs(queries * kDim);
  for (double& v : qs) v = rng.normal(0.1, 1.0);
  std::vector<int> old_labels(queries);
  std::vector<int> new_labels(queries);
  const auto query = [&](std::size_t r) {
    return std::span<const double>(qs.data() + r * kDim, kDim);
  };
  const int reps = fast ? 5 : 10;
  const int factor = handicap("re_decision");
  HotpathPair result{"re_decision", static_cast<std::int64_t>(queries), 0.0,
                     0.0};
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (std::size_t r = 0; r < queries; ++r) {
      old_svm.predict(query(r), 1, std::span<int>(&old_labels[r], 1));
    }
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) {
      for (std::size_t r = 0; r < queries; ++r) {
        svm.predict_block(query(r), 1, std::span<int>(&new_labels[r], 1));
      }
    }
  });
  if (old_labels != new_labels) {
    std::cerr << "re_decision: old and new labels differ\n";
    std::exit(1);
  }
  return result;
}

// Channel tick generation: per-tick sample() calls versus one
// sample_block() over the same span of office activity (the block path
// is what simulate_week drives; it may use the worker pool).
HotpathPair bench_channel_sample_block() {
  const bool fast = bench::fast_mode();
  const rf::FloorPlan plan = rf::paper_office();
  const std::size_t ticks = fast ? 1024 : 4096;
  std::vector<std::vector<rf::BodyState>> bodies(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    const double x = 0.5 + 5.0 * static_cast<double>(t % 512) / 512.0;
    bodies[t] = {{{x, 1.5}, 1.4}, {{4.3, 2.5}, 0.0}, {{0.7, 0.7}, 0.0}};
  }
  rf::ChannelMatrix scalar_ch(plan.sensors, rf::ChannelConfig{}, 1);
  rf::ChannelMatrix batched_ch(plan.sensors, rf::ChannelConfig{}, 1);
  const std::size_t streams = scalar_ch.stream_count();
  exec::ThreadPool pool;  // default_thread_count(), FADEWICH_THREADS-capped
  std::vector<double> block(ticks * streams);
  const int reps = fast ? 5 : 10;
  const int factor = handicap("channel_sample_block");
  HotpathPair result{
      "channel_sample_block",
      static_cast<std::int64_t>(ticks * streams), 0.0, 0.0};
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (std::size_t t = 0; t < ticks; ++t) {
      scalar_ch.sample(bodies[t],
                       std::span<double>(block).subspan(t * streams,
                                                        streams));
    }
    benchmark::DoNotOptimize(block.data());
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) {
      batched_ch.sample_block(bodies, block, &pool);
    }
    benchmark::DoNotOptimize(block.data());
  });
  return result;
}

// --- Kernel-level scalar-vs-SIMD rows --------------------------------
// The pairs below pin the two ends of the runtime dispatch: the scalar
// kernel table versus whatever active_kernels() resolved on this host.
// Under FADEWICH_SIMD=off both sides run the scalar table and the
// speedups sit near 1.0 (the forced-scalar baseline captures that).

// KDE pdf inner loop: the fast-exp sum over the pruned sample window,
// scalar table vs active table, same pruning/binary-search structure.
HotpathPair bench_kde_pdf_block() {
  const bool fast = bench::fast_mode();
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < (fast ? 400 : 1200); ++i) {
    samples.push_back(rng.normal(50.0, 5.0));
  }
  std::sort(samples.begin(), samples.end());
  const double bandwidth = 1.5;
  const std::size_t queries = fast ? 4096 : 16384;
  std::vector<double> xs(queries);
  std::vector<double> out(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    xs[i] = 20.0 + 60.0 * static_cast<double>(i) /
                       static_cast<double>(queries - 1);
  }
  const int reps = fast ? 5 : 10;
  const int factor = handicap("kde_pdf_block");
  HotpathPair result{"kde_pdf_block",
                     static_cast<std::int64_t>(queries), 0.0, 0.0};
  const simd::KernelTable& scalar = simd::kernel_table(simd::Isa::kScalar);
  const simd::KernelTable& active = simd::active_kernels();
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    ml::kde_pdf_block_sorted(samples, bandwidth, xs, out, scalar);
    benchmark::DoNotOptimize(out.data());
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) {
      ml::kde_pdf_block_sorted(samples, bandwidth, xs, out, active);
    }
    benchmark::DoNotOptimize(out.data());
  });
  return result;
}

// SVM squared-distance kernel over a transposed 8-query block at paper
// dimensionality, streamed across a support-vector matrix.
HotpathPair bench_svm_sqdist_block() {
  const bool fast = bench::fast_mode();
  const std::size_t dim = fast ? 64 : 216;
  const std::size_t nsv = fast ? 60 : 100;
  constexpr std::size_t kNq = 8;
  const std::size_t rounds = fast ? 64 : 128;
  Rng rng(11);
  std::vector<double> svs(nsv * dim);
  for (auto& v : svs) v = rng.normal(0.0, 1.0);
  std::vector<double> qt(dim * kNq);
  for (auto& v : qt) v = rng.normal(0.0, 1.0);
  const int reps = fast ? 5 : 10;
  const int factor = handicap("svm_sqdist_block");
  HotpathPair result{
      "svm_sqdist_block",
      static_cast<std::int64_t>(rounds * nsv * kNq), 0.0, 0.0};
  const simd::KernelTable& scalar = simd::kernel_table(simd::Isa::kScalar);
  const simd::KernelTable& active = simd::active_kernels();
  const auto run = [&](const simd::KernelTable& kt) {
    double sink = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t sv = 0; sv < nsv; ++sv) {
        double t[kNq] = {};
        kt.sqdist_block(svs.data() + sv * dim, dim, qt.data(), kNq, kNq, t);
        sink += t[0];
      }
    }
    benchmark::DoNotOptimize(sink);
  };
  result.scalar_ns =
      time_best_ns_per_op(reps, result.ops, [&] { run(scalar); });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) run(active);
  });
  return result;
}

// MD's per-tick window update: the lockstep Welford replace step plus
// the batched stddev over a full-size stream bank.
HotpathPair bench_welford_push_row() {
  const bool fast = bench::fast_mode();
  constexpr std::size_t kStreams = 72;
  const std::size_t pushes = fast ? 20000 : 80000;
  Rng rng(7);
  std::vector<double> rows(256 * kStreams);
  for (auto& v : rows) v = rng.normal(-60.0, 1.0);
  const int reps = fast ? 5 : 10;
  const int factor = handicap("welford_push_row");
  HotpathPair result{
      "welford_push_row",
      static_cast<std::int64_t>(pushes * kStreams), 0.0, 0.0};
  const simd::KernelTable& scalar = simd::kernel_table(simd::Isa::kScalar);
  const simd::KernelTable& active = simd::active_kernels();
  std::vector<double> slot(kStreams, -60.0);
  std::vector<double> mean(kStreams, -60.0);
  std::vector<double> m2(kStreams, 1.0);
  std::vector<double> sd(kStreams);
  const auto run = [&](const simd::KernelTable& kt) {
    for (std::size_t t = 0; t < pushes; ++t) {
      const double* row = rows.data() + (t % 256) * kStreams;
      kt.welford_push_full(slot.data(), row, mean.data(), m2.data(), 10.0,
                           kStreams);
      kt.stddev_from_m2(m2.data(), 10.0, sd.data(), kStreams);
    }
    benchmark::DoNotOptimize(sd.data());
  };
  result.scalar_ns =
      time_best_ns_per_op(reps, result.ops, [&] { run(scalar); });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) run(active);
  });
  return result;
}

// One body's shadowing pass over the office's 72 links: the fast-exp
// spatial kernels on the SoA geometry, the inner loop of every channel
// tick with bodies present.
HotpathPair bench_channel_shadow_pass() {
  const bool fast = bench::fast_mode();
  constexpr std::size_t kLinks = 72;
  const std::size_t ticks = fast ? 20000 : 80000;
  Rng rng(3);
  std::vector<double> ax(kLinks), ay(kLinks), bx(kLinks), by(kLinks);
  std::vector<double> dirx(kLinks), diry(kLinks), len(kLinks),
      inv_len2(kLinks);
  for (std::size_t s = 0; s < kLinks; ++s) {
    ax[s] = rng.uniform(0.0, 6.0);
    ay[s] = rng.uniform(0.0, 4.0);
    bx[s] = rng.uniform(0.0, 6.0);
    by[s] = rng.uniform(0.0, 4.0);
    dirx[s] = bx[s] - ax[s];
    diry[s] = by[s] - ay[s];
    const double len2 = dirx[s] * dirx[s] + diry[s] * diry[s];
    len[s] = std::sqrt(len2);
    inv_len2[s] = len2 > 0.0 ? 1.0 / len2 : 0.0;
  }
  const simd::ShadowGeomView geom{ax.data(),   ay.data(),  bx.data(),
                                  by.data(),   dirx.data(), diry.data(),
                                  len.data(),  inv_len2.data()};
  simd::ShadowParams params;
  params.px = 2.0;
  params.py = 1.5;
  params.max_attenuation_db = 9.0;
  params.shadow_decay_m = 0.18;
  params.motion_coeff = 3.0;
  params.motion_decay_m = 0.55;
  params.ambient_coeff = 0.64 * 1.4;
  params.ambient_decay_m = 4.0;
  std::vector<double> rssi(kLinks, -60.0);
  std::vector<double> noise_var(kLinks, 0.0);
  const int reps = fast ? 5 : 10;
  const int factor = handicap("channel_shadow_pass");
  HotpathPair result{
      "channel_shadow_pass",
      static_cast<std::int64_t>(ticks * kLinks), 0.0, 0.0};
  const simd::KernelTable& scalar = simd::kernel_table(simd::Isa::kScalar);
  const simd::KernelTable& active = simd::active_kernels();
  const auto run = [&](const simd::KernelTable& kt) {
    for (std::size_t t = 0; t < ticks; ++t) {
      kt.shadow_body_pass(geom, kLinks, params, rssi.data(),
                          noise_var.data());
    }
    benchmark::DoNotOptimize(rssi.data());
  };
  result.scalar_ns =
      time_best_ns_per_op(reps, result.ops, [&] { run(scalar); });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) run(active);
  });
  return result;
}

// --- Old-path-vs-new rows ---------------------------------------------
// The two heavy online ticks, each timed against the code path it
// replaced ("scalar" = old path, "batched" = new path in the report).

// MD's normal-profile fold at the default capacity 600 and b = 150.  Old:
// push the batch into the ring, sort all 600 values, Silverman, then the
// exact-Newton percentile (oracle/kde_percentile.hpp).  New:
// NormalProfile::offer, which merges the sorted batch into its sorted
// samples, dropping the evicted ones by age, and locates and certifies
// the root with approximate scans alone.  Both see the same batches; the
// thresholds must agree bit for bit.
HotpathPair bench_profile_fold() {
  const bool fast = bench::fast_mode();
  core::NormalProfileConfig config;  // capacity 600, batch 150
  const std::size_t cap = config.capacity;
  const std::size_t b = config.batch_size;
  Rng rng(23);
  std::vector<double> seed(cap);
  for (auto& v : seed) v = rng.normal(50.0, 5.0);
  const std::size_t batches = fast ? 40 : 200;
  std::vector<double> values(batches * b);
  for (auto& v : values) v = rng.normal(50.0, 5.0);
  const double p = 1.0 - config.alpha / 100.0;

  // The old fold, as NormalProfile ran it before the merge.
  std::vector<double> ring = seed;
  std::size_t head = 0;
  std::vector<double> queue;
  std::vector<double> sorted;
  double old_threshold = 0.0;
  {
    sorted = ring;
    std::sort(sorted.begin(), sorted.end());
    old_threshold = oracle::kde_percentile_exact_newton(
        sorted, ml::GaussianKde::silverman_bandwidth(sorted), p, 80, 1e-9);
  }
  const auto old_offer = [&](double v) {
    queue.push_back(v);
    if (queue.size() < b) return;
    std::size_t above = 0;
    for (const double q : queue) above += q >= old_threshold ? 1 : 0;
    if (static_cast<double>(above) <
        config.anomalous_fraction * static_cast<double>(b)) {
      for (const double q : queue) {
        ring[head] = q;
        head = head + 1 == cap ? 0 : head + 1;
      }
      sorted.assign(ring.begin() + static_cast<std::ptrdiff_t>(head),
                    ring.end());
      sorted.insert(sorted.end(), ring.begin(),
                    ring.begin() + static_cast<std::ptrdiff_t>(head));
      std::sort(sorted.begin(), sorted.end());
      old_threshold = oracle::kde_percentile_exact_newton(
          sorted, ml::GaussianKde::silverman_bandwidth(sorted), p, 80, 1e-9);
    }
    queue.clear();
  };
  core::NormalProfile profile(config);
  profile.initialize(seed);

  const int reps = fast ? 3 : 5;
  const int factor = handicap("profile_fold");
  HotpathPair result{"profile_fold", static_cast<std::int64_t>(batches),
                     0.0, 0.0};
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (const double v : values) old_offer(v);
  });
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (const double v : values) profile.offer(v);
    // The handicap repeats the folds' refits on a scratch profile.
    for (int f = 1; f < factor; ++f) {
      core::NormalProfile twin(config);
      twin.initialize(seed);
      for (const double v : values) twin.offer(v);
    }
  });
  const double new_threshold = profile.threshold();
  if (std::memcmp(&old_threshold, &new_threshold, sizeof(double)) != 0) {
    std::cerr << "profile_fold: old and new thresholds differ\n";
    std::exit(1);
  }
  return result;
}

// RE's Rule-1 feature step on 72 streams x 23 ticks of integer RSSI,
// from the history rings to the feature vector.  Old: one heap vector
// per stream window and validity mask, then the map-entropy extraction
// (oracle/features.hpp).  New: both rings read into one arena block,
// validity summed in place, then the block extraction into a reused
// buffer.  Both must yield the same features.
HotpathPair bench_classify_window_features() {
  const bool fast = bench::fast_mode();
  constexpr std::size_t kStreams = 72;
  constexpr Tick kRows = 23;
  constexpr std::size_t kCap = 64;
  const core::FeatureConfig config;
  Rng rng(31);
  core::StreamHistory history(kStreams, kCap);
  core::StreamHistory validity(kStreams, kCap);
  // The old stream-major rings: ring[s * kCap + slot].
  std::vector<double> old_ring(kStreams * kCap);
  std::vector<double> old_valid(kStreams * kCap, 1.0);
  std::vector<double> row(kStreams);
  const std::vector<double> ones(kStreams, 1.0);
  for (Tick t = 0; t < static_cast<Tick>(kCap); ++t) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      row[s] = std::round(rng.normal(-60.0, 2.0));
      old_ring[s * kCap + static_cast<std::size_t>(t)] = row[s];
    }
    history.push(row);
    validity.push(ones);
  }
  const Tick windows = static_cast<Tick>(kCap) - kRows + 1;
  const int reps = fast ? 5 : 10;
  const int factor = handicap("classify_window_features");
  HotpathPair result{"classify_window_features", windows, 0.0, 0.0};

  std::vector<double> old_features;
  result.scalar_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (Tick begin = 0; begin < windows; ++begin) {
      std::vector<std::vector<double>> samples;
      std::vector<std::vector<double>> masks;
      for (std::size_t s = 0; s < kStreams; ++s) {
        std::vector<double> w;
        std::vector<double> m;
        for (Tick t = begin; t < begin + kRows; ++t) {
          const std::size_t slot = s * kCap + static_cast<std::size_t>(t);
          w.push_back(old_ring[slot]);
          m.push_back(old_valid[slot]);
        }
        samples.push_back(std::move(w));
        masks.push_back(std::move(m));
      }
      std::vector<double> fractions;
      for (const auto& m : masks) {
        double sum = 0.0;
        for (const double v : m) sum += v;
        fractions.push_back(sum / static_cast<double>(m.size()));
      }
      benchmark::DoNotOptimize(fractions.data());
      old_features = oracle::extract_features(samples, config);
    }
  });
  std::vector<double> features(kStreams * core::kFeaturesPerStream);
  auto& arena = common::ScratchArena::local();
  result.batched_ns = time_best_ns_per_op(reps, result.ops, [&] {
    for (int f = 0; f < factor; ++f) {
      for (Tick begin = 0; begin < windows; ++begin) {
        const auto frame = arena.frame();
        const Tick end = begin + kRows - 1;
        const std::span<double> block =
            arena.get<double>(static_cast<std::size_t>(kRows) * kStreams);
        history.copy_rows(begin, end, block);
        const std::span<double> fractions = arena.get<double>(kStreams);
        validity.sum_rows(begin, end, fractions);
        for (double& v : fractions) v /= static_cast<double>(kRows);
        benchmark::DoNotOptimize(fractions.data());
        core::extract_features(
            core::WindowBlock{block, static_cast<std::size_t>(kRows),
                              kStreams},
            config, features);
      }
    }
  });
  if (features != old_features) {
    std::cerr << "classify_window_features: old and new features differ\n";
    std::exit(1);
  }
  return result;
}

// Steady-state cost of one full online pipeline tick (KMA + MD + RE +
// controller + sessions) on a warmed, quiet system — the loop the
// zero-allocation budget covers.  No scalar/batched pair; tracked as a
// trajectory number.
struct SingleRate {
  std::string name;
  std::int64_t ops = 0;
  double ns_per_op = 0.0;
};

SingleRate bench_system_step() {
  const bool fast = bench::fast_mode();
  constexpr std::size_t kStreams = 72;
  constexpr std::size_t kWorkstations = 4;
  core::SystemConfig config;
  config.md.calibration = 30.0;
  core::FadewichSystem system(kStreams, kWorkstations, config);

  Rng rng(17);
  std::vector<double> row(kStreams);
  const auto feed = [&](double sigma, std::size_t steps) {
    for (std::size_t t = 0; t < steps; ++t) {
      for (auto& v : row) v = rng.normal(-60.0, sigma);
      system.step(row);
    }
  };
  feed(1.0, 400);  // calibration + window warm-up

  // A tiny two-class training set so the system flips online; the quiet
  // feed below never reaches a Rule-1 classification, so only the
  // feature dimensionality matters.
  ml::Dataset data;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> windows(
        kStreams, std::vector<double>(23));
    for (auto& w : windows) {
      for (auto& v : w) v = rng.normal(i % 2 == 0 ? -60.0 : -55.0, 1.0);
    }
    data.add(oracle::block_features(windows, config.features), i % 2);
  }
  system.train_with(data);
  feed(0.5, 1000);  // warm the online path and every retained buffer

  // Pre-generated quiet rows so the timed loop measures step(), not the
  // RNG.
  constexpr std::size_t kRowTable = 256;
  std::vector<double> rows(kRowTable * kStreams);
  for (auto& v : rows) v = rng.normal(-60.0, 0.5);
  const std::size_t steps = fast ? 5000 : 20000;
  SingleRate result{"system_step", static_cast<std::int64_t>(steps), 0.0};
  result.ns_per_op = time_best_ns_per_op(fast ? 3 : 5, result.ops, [&] {
    for (std::size_t t = 0; t < steps; ++t) {
      const std::span<const double> r(
          rows.data() + (t % kRowTable) * kStreams, kStreams);
      benchmark::DoNotOptimize(system.step(r).md_state);
    }
  });
  return result;
}

// One MD threshold refit as the live path pays it: a 150-value quiet
// batch folded into a full 600-sample profile — sort the batch, one
// merge walk that evicts by age, Silverman, and the KDE's 99th
// percentile from ~4 approximate scans (an exact CDF only for a
// bisection midpoint within the certified delta, <1% of refits).
// Trajectory number only.
SingleRate bench_profile_refit() {
  const bool fast = bench::fast_mode();
  core::NormalProfileConfig config;  // capacity 600, batch 150
  Rng rng(19);
  std::vector<double> seed(config.capacity);
  for (auto& v : seed) v = rng.normal(50.0, 5.0);
  const std::size_t batches = fast ? 40 : 200;
  std::vector<double> values(batches * config.batch_size);
  for (auto& v : values) v = rng.normal(50.0, 5.0);
  core::NormalProfile profile(config);
  const auto pass = [&] {
    profile.initialize(seed);
    std::int64_t refits = 0;
    for (const double v : values) refits += profile.offer(v) ? 1 : 0;
    benchmark::DoNotOptimize(profile.threshold());
    return refits;
  };
  // The feed is fixed, so every pass refits on the same batches; a
  // batch judged anomalous is dropped without a refit and not counted.
  SingleRate result{"profile_refit", pass(), 0.0};
  result.ns_per_op =
      time_best_ns_per_op(fast ? 3 : 5, result.ops, [&] { pass(); });
  return result;
}

int run_hotpath_report(const std::string& path) {
  const std::vector<HotpathPair> pairs{
      bench_kde_pdf_sweep(),      bench_svm_decision(),
      bench_channel_sample_block(), bench_kde_pdf_block(),
      bench_svm_sqdist_block(),   bench_welford_push_row(),
      bench_channel_shadow_pass(), bench_profile_fold(),
      bench_classify_window_features(), bench_re_decision()};
  const std::vector<SingleRate> singles{bench_system_step(),
                                        bench_profile_refit()};

  bench::JsonReport json(path, "fadewich-bench-hotpaths/2",
                         exec::default_thread_count());
  json.begin_object("hotpaths");
  for (const HotpathPair& p : pairs) {
    json.begin_object(p.name)
        .field("ops", p.ops)
        .field("scalar_ns_per_op", p.scalar_ns)
        .field("batched_ns_per_op", p.batched_ns)
        .field("speedup", p.speedup())
        .end();
  }
  for (const SingleRate& r : singles) {
    json.begin_object(r.name)
        .field("ops", r.ops)
        .field("ns_per_op", r.ns_per_op)
        .end();
  }
  json.end().close();

  for (const HotpathPair& p : pairs) {
    std::cout << p.name << ": scalar " << p.scalar_ns << " ns/op, batched "
              << p.batched_ns << " ns/op, speedup " << p.speedup() << "\n";
  }
  for (const SingleRate& r : singles) {
    std::cout << r.name << ": " << r.ns_per_op << " ns/op\n";
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace fadewich

int main(int argc, char** argv) {
  // `--fast` mirrors FADEWICH_BENCH_FAST=1 (the flag CI passes); a .json
  // argument selects report mode; anything else runs google-benchmark.
  std::string json_path;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      setenv("FADEWICH_BENCH_FAST", "1", 1);
    } else if (arg.size() > 5 &&
               arg.compare(arg.size() - 5, 5, ".json") == 0) {
      json_path = arg;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return fadewich::run_hotpath_report(json_path);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
