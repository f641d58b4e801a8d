// Benchmark-trajectory harness: one invocation measures every
// parallelised hot path against its serial (1-thread) baseline and writes
// a machine-readable BENCH_parallel.json, so successive PRs have a perf
// trajectory to regress against.
//
//   ./bench_report [output.json]     (default: BENCH_parallel.json)
//
// FADEWICH_BENCH_FAST=1 shrinks the workloads for smoke runs;
// FADEWICH_THREADS caps the parallel pool as everywhere else.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/net/live_network.hpp"
#include "fadewich/rf/channel.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/sim/schedule.hpp"
#include "fadewich/sim/simulator.hpp"

namespace fadewich::bench {
namespace {

struct Comparison {
  std::string name;
  std::int64_t items = 0;      // work units per run (stream-samples, ...)
  double serial_ms = 0.0;      // 1-thread pool
  double parallel_ms = 0.0;    // N-thread pool
  double speedup() const { return serial_ms / parallel_ms; }
  double serial_items_per_s() const {
    return 1e3 * static_cast<double>(items) / serial_ms;
  }
  double parallel_items_per_s() const {
    return 1e3 * static_cast<double>(items) / parallel_ms;
  }
};

struct SingleRate {
  std::string name;
  std::int64_t items = 0;
  double wall_ms = 0.0;
  double items_per_s() const {
    return 1e3 * static_cast<double>(items) / wall_ms;
  }
};

Comparison bench_simulate_week(exec::ThreadPool& serial,
                               exec::ThreadPool& wide, int reps) {
  const rf::FloorPlan plan = rf::paper_office();
  sim::DayScheduleConfig day;
  day.day_length = (fast_mode() ? 5.0 : 20.0) * 60.0;
  day.calibration = 2.0 * 60.0;
  day.departure_window = 2.5 * 60.0;
  day.min_breaks = 1;
  day.max_breaks = 1;
  day.break_min = 60.0;
  day.break_max = 2.0 * 60.0;
  const std::size_t days = 4;
  Rng rng(42);
  const sim::WeekSchedule week = sim::generate_week_schedule(
      day, plan.workstation_count(), days, rng);
  sim::SimulationConfig config;
  config.seed = 42;

  Comparison out;
  out.name = "simulate_week";
  {
    const sim::Recording rec = sim::simulate_week(plan, week, config,
                                                  &serial);
    out.items = static_cast<std::int64_t>(rec.tick_count()) *
                static_cast<std::int64_t>(rec.stream_count());
  }
  out.serial_ms = time_best_ms(reps, [&] {
    sim::simulate_week(plan, week, config, &serial);
  });
  out.parallel_ms = time_best_ms(reps, [&] {
    sim::simulate_week(plan, week, config, &wide);
  });
  return out;
}

Comparison bench_sample_block(exec::ThreadPool& serial,
                              exec::ThreadPool& wide, int reps) {
  const rf::FloorPlan plan = rf::paper_office();
  const std::size_t ticks = fast_mode() ? 4096 : 16384;
  std::vector<std::vector<rf::BodyState>> bodies(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    const double x = 0.5 + 5.0 * static_cast<double>(t % 512) / 512.0;
    bodies[t] = {{{x, 1.5}, 1.4}, {{4.3, 2.5}, 0.0}, {{0.7, 0.7}, 0.0}};
  }

  Comparison out;
  out.name = "channel_sample_block";
  rf::ChannelMatrix probe(plan.sensors, rf::ChannelConfig{}, 1);
  out.items = static_cast<std::int64_t>(ticks) *
              static_cast<std::int64_t>(probe.stream_count());
  std::vector<double> block(ticks * probe.stream_count());
  // Fresh channel per run so every run advances the same tick range.
  out.serial_ms = time_best_ms(reps, [&] {
    rf::ChannelMatrix channel(plan.sensors, rf::ChannelConfig{}, 1);
    channel.sample_block(bodies, block, &serial);
  });
  out.parallel_ms = time_best_ms(reps, [&] {
    rf::ChannelMatrix channel(plan.sensors, rf::ChannelConfig{}, 1);
    channel.sample_block(bodies, block, &wide);
  });
  return out;
}

Comparison bench_svm_train(exec::ThreadPool& serial, exec::ThreadPool& wide,
                           int reps) {
  // RE's training workload: ~110 samples x 216 features, 4 classes.
  Rng rng(11);
  ml::Dataset data;
  const int samples = fast_mode() ? 60 : 110;
  for (int i = 0; i < samples; ++i) {
    const int label = i % 4;
    std::vector<double> x(216);
    for (std::size_t f = 0; f < x.size(); ++f) {
      x[f] = rng.normal(
          f % 4 == static_cast<std::size_t>(label) ? 2.0 : 0.0, 1.0);
    }
    data.add(std::move(x), label);
  }

  Comparison out;
  out.name = "multiclass_svm_train";
  out.items = static_cast<std::int64_t>(data.size());
  out.serial_ms = time_best_ms(reps, [&] {
    ml::MulticlassSvm svm;
    svm.train(data, &serial);
  });
  out.parallel_ms = time_best_ms(reps, [&] {
    ml::MulticlassSvm svm;
    svm.train(data, &wide);
  });
  return out;
}

/// MD per-tick cost at two very different window lengths.  With the
/// incremental Welford windows the two rates should be nearly equal —
/// that near-equality is the O(1)-per-tick evidence the trajectory tracks.
std::vector<SingleRate> bench_movement_detector() {
  std::vector<SingleRate> out;
  const std::int64_t ticks = fast_mode() ? 50'000 : 200'000;
  for (const double window_s : {2.0, 60.0}) {
    core::MovementDetectorConfig config;
    config.std_window = window_s;
    config.calibration = 10.0;
    core::MovementDetector md(72, 5.0, config);
    Rng rng(7);
    std::vector<double> row(72);
    for (int i = 0; i < 400; ++i) {  // warm through calibration
      for (auto& v : row) v = rng.normal(-60.0, 1.0);
      md.step(row);
    }
    SingleRate rate;
    rate.name = "movement_detector_step_window_" +
                std::to_string(static_cast<int>(window_s)) + "s";
    rate.items = ticks * 72;
    rate.wall_ms = time_best_ms(1, [&] {
      for (std::int64_t t = 0; t < ticks; ++t) {
        for (auto& v : row) v = rng.normal(-60.0, 1.0);
        md.step(row);
      }
    });
    out.push_back(rate);
  }
  return out;
}

/// Faulty-transport station throughput plus the health counters the
/// degraded run accumulated — the fault-tolerance path's live telemetry.
struct StationStats {
  SingleRate rate;
  net::StationHealth health;
  net::FaultInjector::Counters faults;
};

StationStats bench_station_faulty() {
  const rf::FloorPlan plan = rf::paper_office();
  net::FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.delay_probability = 0.05;
  faults.max_delay_ticks = 3;
  faults.duplicate_probability = 0.02;
  net::StationConfig station;
  station.deadline_ticks = 3;
  const std::int64_t ticks = fast_mode() ? 2'000 : 10'000;

  net::LiveSensorNetwork network(plan.sensors, rf::ChannelConfig{}, 5.0,
                                 42, faults, station);
  StationStats out;
  out.rate.name = "central_station_faulty_round";
  out.rate.items =
      ticks * static_cast<std::int64_t>(network.stream_count());
  out.rate.wall_ms = time_best_ms(1, [&] {
    for (std::int64_t t = 0; t < ticks; ++t) network.round({});
  });
  out.health = network.station().health();
  out.faults = network.injector()->counters();
  return out;
}

void write_json(const std::string& path,
                const std::vector<Comparison>& comparisons,
                const std::vector<SingleRate>& rates,
                const StationStats& station, std::size_t threads) {
  JsonReport json(path, "fadewich-bench-parallel/2", threads);
  json.begin_array("benchmarks");
  for (const Comparison& c : comparisons) {
    json.begin_object()
        .field("name", c.name)
        .field("items", c.items)
        .field("serial_wall_ms", c.serial_ms)
        .field("serial_items_per_s", c.serial_items_per_s())
        .field("parallel_wall_ms", c.parallel_ms)
        .field("parallel_items_per_s", c.parallel_items_per_s())
        .field("speedup", c.speedup())
        .end();
  }
  json.end().begin_array("single_thread");
  for (const SingleRate& r : rates) {
    json.begin_object()
        .field("name", r.name)
        .field("items", r.items)
        .field("wall_ms", r.wall_ms)
        .field("items_per_s", r.items_per_s())
        .end();
  }
  json.end()
      .begin_object("station_health")
      .field("name", station.rate.name)
      .field("items", station.rate.items)
      .field("wall_ms", station.rate.wall_ms)
      .field("items_per_s", station.rate.items_per_s())
      .field("reports", station.health.reports)
      .field("duplicates", station.health.duplicates)
      .field("late_reports", station.health.late_reports)
      .field("evictions", station.health.evictions)
      .field("incomplete_releases", station.health.incomplete_releases)
      .field("imputed_cells", station.health.imputed_cells)
      .field("faults_offered", station.faults.offered)
      .field("faults_dropped", station.faults.dropped)
      .field("faults_delayed", station.faults.delayed)
      .field("faults_duplicated", station.faults.duplicated)
      .end();
  json.close();
}

int run(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_parallel.json");
  const int reps = fast_mode() ? 1 : 3;

  exec::ThreadPool serial(1);
  exec::ThreadPool wide;  // default_thread_count(); honours FADEWICH_THREADS
  std::cerr << "[bench_report] parallel pool: " << wide.thread_count()
            << " thread(s), " << (fast_mode() ? "fast" : "full")
            << " workloads, best of " << reps << "\n";

  std::vector<Comparison> comparisons;
  comparisons.push_back(bench_simulate_week(serial, wide, reps));
  comparisons.push_back(bench_sample_block(serial, wide, reps));
  comparisons.push_back(bench_svm_train(serial, wide, reps));
  for (const Comparison& c : comparisons) {
    std::cerr << "[bench_report] " << c.name << ": serial " << c.serial_ms
              << " ms, parallel " << c.parallel_ms << " ms, speedup "
              << c.speedup() << "x\n";
  }
  const std::vector<SingleRate> rates = bench_movement_detector();
  for (const SingleRate& r : rates) {
    std::cerr << "[bench_report] " << r.name << ": " << r.wall_ms
              << " ms (" << r.items_per_s() / 1e6 << " M items/s)\n";
  }
  const StationStats station = bench_station_faulty();
  std::cerr << "[bench_report] " << station.rate.name << ": "
            << station.rate.wall_ms << " ms ("
            << station.rate.items_per_s() / 1e6
            << " M items/s), dropped " << station.faults.dropped
            << ", imputed " << station.health.imputed_cells
            << ", late " << station.health.late_reports << "\n";

  write_json(path, comparisons, rates, station, wide.thread_count());
  std::cerr << "[bench_report] wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace fadewich::bench

int main(int argc, char** argv) {
  return fadewich::bench::run(argc, argv);
}
