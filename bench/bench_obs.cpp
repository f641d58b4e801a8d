// Observability-overhead trajectory: the instrumented hot paths timed
// with the runtime toggle on vs off, plus ns/op for the primitives, so
// every PR can check the "< 2% enabled, ~0% disabled" budget the obs
// subsystem promises.  Writes BENCH_obs.json and — as scrape-format
// samples for CI artifacts — scrape_sample.prom / scrape_sample.json
// rendered from one unified SupervisedSystem::scrape() document.
//
//   ./bench_obs [output.json [prom_sample [json_sample]]]
//
// Overhead percentages are recorded, not asserted: single-run wall times
// are noisy and the budget is enforced by inspection of the trajectory,
// not by failing CI on scheduler jitter.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/net/live_network.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/persist/supervised_system.hpp"
#include "fadewich/rf/channel.hpp"
#include "fadewich/rf/floorplan.hpp"

namespace fadewich::bench {
namespace {

struct Overhead {
  std::string name;
  std::int64_t items = 0;
  double enabled_ms = 0.0;
  double disabled_ms = 0.0;
  double overhead_pct() const {
    if (disabled_ms <= 0.0) return 0.0;
    return 100.0 * (enabled_ms - disabled_ms) / disabled_ms;
  }
};

/// MD per-tick path with quiet traffic: the tightest instrumented loop.
Overhead bench_md_step(int reps) {
  const std::int64_t ticks = fast_mode() ? 40'000 : 150'000;
  Overhead out;
  out.name = "movement_detector_step";
  out.items = ticks * 72;
  const auto run = [&] {
    core::MovementDetectorConfig config;
    config.calibration = 10.0;
    core::MovementDetector md(72, 5.0, config);
    Rng rng(7);
    std::vector<double> row(72);
    for (int i = 0; i < 400; ++i) {
      for (auto& v : row) v = rng.normal(-60.0, 1.0);
      md.step(row);
    }
    for (std::int64_t t = 0; t < ticks; ++t) {
      for (auto& v : row) v = rng.normal(-60.0, 1.0);
      md.step(row);
    }
  };
  obs::set_enabled(false);
  out.disabled_ms = time_best_ms(reps, run);
  obs::set_enabled(true);
  out.enabled_ms = time_best_ms(reps, run);
  return out;
}

/// Faulty station rounds: every report pays injector + station counters,
/// the densest per-event instrumentation in the tree.
Overhead bench_station_round(int reps) {
  const rf::FloorPlan plan = rf::paper_office();
  net::FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.delay_probability = 0.05;
  faults.max_delay_ticks = 3;
  faults.duplicate_probability = 0.02;
  net::StationConfig station;
  station.deadline_ticks = 3;
  const std::int64_t ticks = fast_mode() ? 2'000 : 8'000;

  Overhead out;
  out.name = "central_station_faulty_round";
  const auto run = [&] {
    net::LiveSensorNetwork network(plan.sensors, rf::ChannelConfig{}, 5.0,
                                   42, faults, station);
    out.items =
        ticks * static_cast<std::int64_t>(network.stream_count());
    for (std::int64_t t = 0; t < ticks; ++t) network.round({});
  };
  obs::set_enabled(false);
  out.disabled_ms = time_best_ms(reps, run);
  obs::set_enabled(true);
  out.enabled_ms = time_best_ms(reps, run);
  return out;
}

struct Primitive {
  std::string name;
  double ns_per_op = 0.0;
};

std::vector<Primitive> bench_primitives() {
  const std::int64_t n = fast_mode() ? 2'000'000 : 10'000'000;
  std::vector<Primitive> out;
  const auto per_op = [&](double ms) {
    return 1e6 * ms / static_cast<double>(n);
  };

  obs::set_enabled(true);
  obs::Counter counter =
      obs::registry().counter("bench_obs_counter_total", "bench");
  out.push_back({"counter_inc_enabled", per_op(time_best_ms(3, [&] {
                   for (std::int64_t i = 0; i < n; ++i) counter.inc();
                 }))});

  obs::set_enabled(false);
  out.push_back({"counter_inc_disabled", per_op(time_best_ms(3, [&] {
                   for (std::int64_t i = 0; i < n; ++i) counter.inc();
                 }))});
  obs::set_enabled(true);

  obs::Histogram histogram =
      obs::registry().histogram("bench_obs_histogram_seconds", "bench");
  out.push_back({"histogram_observe_enabled", per_op(time_best_ms(3, [&] {
                   double v = 1e-6;
                   for (std::int64_t i = 0; i < n; ++i) {
                     histogram.observe(v);
                     v = v < 1.0 ? v * 1.5 : 1e-6;
                   }
                 }))});

  obs::Gauge gauge = obs::registry().gauge("bench_obs_gauge", "bench");
  out.push_back({"gauge_set_enabled", per_op(time_best_ms(3, [&] {
                   for (std::int64_t i = 0; i < n; ++i) {
                     gauge.set(static_cast<double>(i));
                   }
                 }))});
  return out;
}

/// Drive a small supervised pipeline over a faulty network and render
/// its unified scrape in both formats — the CI artifact samples.
void write_scrape_samples(const std::string& prom_path,
                          const std::string& json_path) {
  obs::set_enabled(true);
  const rf::FloorPlan plan = rf::paper_office();
  net::FaultConfig faults;
  faults.drop_probability = 0.05;
  faults.duplicate_probability = 0.02;
  net::StationConfig station;
  station.deadline_ticks = 3;
  net::LiveSensorNetwork network(plan.sensors, rf::ChannelConfig{}, 5.0,
                                 42, faults, station);

  const auto ring_dir =
      std::filesystem::temp_directory_path() / "fadewich_bench_obs_ring";
  std::filesystem::remove_all(ring_dir);
  persist::SupervisedConfig config;
  config.recovery.directory = ring_dir.string();
  config.checkpoint_period_ticks = 500;
  core::SystemConfig system;
  system.md.calibration = 30.0;
  persist::SupervisedSystem supervised(network.stream_count(),
                                       plan.workstation_count(), system,
                                       config);

  const std::int64_t ticks = fast_mode() ? 1'000 : 3'000;
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (const net::StationRow& row : network.round({})) {
      supervised.step(row.values, row.valid);
    }
  }
  supervised.set_station_health(network.station().health());
  const net::FaultInjector::Counters counters =
      network.injector()->counters();
  const obs::ScrapeReport report = supervised.scrape(&counters);

  write_file(prom_path, report.to_prometheus());
  write_file(json_path, report.to_json());
  std::filesystem::remove_all(ring_dir);
  std::cerr << "[bench_obs] wrote " << prom_path << " and " << json_path
            << "\n";
}

void write_json(const std::string& path,
                const std::vector<Overhead>& overheads,
                const std::vector<Primitive>& primitives) {
  JsonReport json(path, "fadewich-bench-obs/1", 1);
  json.begin_array("workloads");
  for (const Overhead& o : overheads) {
    json.begin_object()
        .field("name", o.name)
        .field("items", o.items)
        .field("disabled_wall_ms", o.disabled_ms)
        .field("enabled_wall_ms", o.enabled_ms)
        .field("overhead_pct", o.overhead_pct())
        .end();
  }
  json.end().begin_object("primitives_ns_per_op");
  for (const Primitive& p : primitives) json.field(p.name, p.ns_per_op);
  json.end().close();
}

int run(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_obs.json");
  const std::string prom_path =
      argc > 2 ? argv[2] : std::string("scrape_sample.prom");
  const std::string json_path =
      argc > 3 ? argv[3] : std::string("scrape_sample.json");
  const int reps = fast_mode() ? 2 : 3;

  std::vector<Overhead> overheads;
  overheads.push_back(bench_md_step(reps));
  overheads.push_back(bench_station_round(reps));
  for (const Overhead& o : overheads) {
    std::cerr << "[bench_obs] " << o.name << ": disabled "
              << o.disabled_ms << " ms, enabled " << o.enabled_ms
              << " ms, overhead " << o.overhead_pct() << "%\n";
  }
  const std::vector<Primitive> primitives = bench_primitives();
  for (const Primitive& p : primitives) {
    std::cerr << "[bench_obs] " << p.name << ": " << p.ns_per_op
              << " ns/op\n";
  }

  write_scrape_samples(prom_path, json_path);
  write_json(path, overheads, primitives);
  std::cerr << "[bench_obs] wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace fadewich::bench

int main(int argc, char** argv) {
  return fadewich::bench::run(argc, argv);
}
