// Campus-scale fleet trajectory: sharded multi-office weeks swept from
// 10 to 10k offices on the work-stealing pool, emitting throughput
// (offices/sec, shard-ticks/sec) and fleet-layer bytes-per-office into
// BENCH_fleet.json.  Report-only for perf (no ratchet yet) but with two
// hard correctness gates, both fatal (nonzero exit):
//   1. Determinism: the same fleet week on a 1-thread and a 4-thread
//      pool must produce identical fleet digests.
//   2. Supervised recovery: killing one shard mid-week must recover via
//      the fleet's restart pass with every *other* shard's digest
//      bit-identical to an uncrashed reference run.
//
//   ./bench_fleet [output.json]   (default: BENCH_fleet.json)
//
// Knobs: FADEWICH_FLEET_OFFICES (comma-separated sweep override),
// FADEWICH_FLEET_TICKS (week length), FADEWICH_BENCH_FAST=1 (shrinks
// both).  Malformed knob values abort loudly (common::env_*).
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fadewich/common/env.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/fleet.hpp"

using namespace fadewich;

namespace {

struct SweepPoint {
  std::size_t offices = 0;
  fleet::RunStats stats;
  double bytes_per_office = 0.0;
  std::uint32_t digest = 0;
  std::uint64_t deauths = 0;
  std::uint64_t spurious_deauths = 0;
};

fleet::FleetConfig fleet_config(std::size_t offices) {
  fleet::FleetConfig config;
  config.offices = offices;
  config.shard.system = fleet::default_shard_system();
  return config;
}

SweepPoint run_point(std::size_t offices, Tick ticks) {
  fleet::Fleet fleet(fleet_config(offices));
  SweepPoint point;
  point.offices = offices;
  point.stats = fleet.run_week(ticks);
  point.bytes_per_office = fleet.memory_bytes_per_office();
  point.digest = fleet.fleet_digest();
  point.deauths = fleet.total_deauths();
  point.spurious_deauths = fleet.total_spurious_deauths();
  return point;
}

bool determinism_gate(Tick ticks, std::uint32_t* pool1, std::uint32_t* pool4) {
  constexpr std::size_t kOffices = 8;
  exec::ThreadPool serial(1);
  exec::ThreadPool wide(4);
  fleet::Fleet a(fleet_config(kOffices), &serial);
  fleet::Fleet b(fleet_config(kOffices), &wide);
  a.run_week(ticks);
  b.run_week(ticks);
  *pool1 = a.fleet_digest();
  *pool4 = b.fleet_digest();
  return *pool1 == *pool4;
}

struct RecoveryOutcome {
  std::size_t restarts = 0;
  bool recovered = false;
  bool neighbors_identical = false;
};

RecoveryOutcome recovery_gate(Tick ticks) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "fadewich_bench_fleet_recovery";
  fs::remove_all(root);

  constexpr std::size_t kOffices = 6;
  constexpr std::size_t kVictim = 3;
  exec::ThreadPool pool(4);

  auto supervised = [&](const char* subdir) {
    fleet::FleetConfig config = fleet_config(kOffices);
    config.snapshot_root = (root / subdir).string();
    config.checkpoint_period = 250;
    return config;
  };

  fleet::Fleet reference(supervised("reference"), &pool);
  reference.run_week(ticks);

  fleet::Fleet crashed(supervised("crashed"), &pool);
  crashed.inject_crash(kVictim, ticks / 2);
  const fleet::RunStats stats = crashed.run_week(ticks);

  RecoveryOutcome outcome;
  outcome.restarts = stats.restarts;
  outcome.recovered = !crashed.shard(kVictim).faulted() &&
                      crashed.shard(kVictim).tick() == ticks;
  outcome.neighbors_identical = true;
  for (std::size_t i = 0; i < kOffices; ++i) {
    if (i == kVictim) continue;
    if (crashed.shard_digest(i) != reference.shard_digest(i)) {
      outcome.neighbors_identical = false;
      std::cerr << "[bench_fleet] recovery perturbed office " << i << "\n";
    }
  }
  fs::remove_all(root);
  return outcome;
}

void write_json(const std::string& path,
                const std::vector<SweepPoint>& sweep, Tick ticks,
                std::uint32_t pool1, std::uint32_t pool4,
                const RecoveryOutcome& recovery) {
  bench::JsonReport json(path, "fadewich-bench-fleet/1",
                         exec::default_thread_count());
  json.field("week_ticks", ticks).begin_object("fleet");
  for (const SweepPoint& p : sweep) {
    json.begin_object("offices_" + std::to_string(p.offices))
        .field("offices", p.offices)
        .field("ticks", p.stats.ticks)
        .field("wall_seconds", p.stats.wall_seconds)
        .field("offices_per_sec", p.stats.offices_per_sec)
        .field("ticks_per_sec", p.stats.ticks_per_sec)
        .field("bytes_per_office", p.bytes_per_office)
        .field("deauths", p.deauths)
        .field("spurious_deauths", p.spurious_deauths)
        .field("digest", p.digest)
        .end();
  }
  json.end()
      .begin_object("determinism")
      .field("pool1_digest", pool1)
      .field("pool4_digest", pool4)
      .field("match", pool1 == pool4)
      .end()
      .begin_object("recovery")
      .field("restarts", recovery.restarts)
      .field("recovered", recovery.recovered)
      .field("neighbors_identical", recovery.neighbors_identical)
      .end()
      .close();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_fleet.json");
  const bool fast = bench::fast_mode();

  std::vector<std::size_t> sweep =
      common::env_count_list("FADEWICH_FLEET_OFFICES",
                             /*max_value=*/1u << 20);
  if (sweep.empty()) {
    sweep = fast ? std::vector<std::size_t>{10, 100}
                 : std::vector<std::size_t>{10, 100, 1000, 10000};
  }
  // A "week" here is one full synthetic occupancy schedule: calibration,
  // four training rounds, then online cycles (train_end is 2380 ticks).
  const Tick default_ticks = fast ? 3000 : 4000;
  const Tick ticks = static_cast<Tick>(common::env_count(
      "FADEWICH_FLEET_TICKS", static_cast<std::size_t>(default_ticks),
      /*max_value=*/1u << 30));

  std::vector<SweepPoint> points;
  for (const std::size_t offices : sweep) {
    std::cerr << "[bench_fleet] " << offices << " offices x " << ticks
              << " ticks...\n";
    points.push_back(run_point(offices, ticks));
    const SweepPoint& p = points.back();
    std::cerr << "[bench_fleet]   " << p.stats.ticks_per_sec
              << " shard-ticks/s, " << p.stats.offices_per_sec
              << " offices/s, " << p.bytes_per_office
              << " B/office, digest " << p.digest << "\n";
  }

  const Tick gate_ticks = fast ? 2600 : 3000;
  std::cerr << "[bench_fleet] determinism gate (pool 1 vs 4)...\n";
  std::uint32_t pool1 = 0;
  std::uint32_t pool4 = 0;
  const bool deterministic = determinism_gate(gate_ticks, &pool1, &pool4);

  std::cerr << "[bench_fleet] supervised recovery gate...\n";
  const RecoveryOutcome recovery = recovery_gate(gate_ticks);

  write_json(path, points, ticks, pool1, pool4, recovery);
  std::cerr << "[bench_fleet] wrote " << path << "\n";

  int rc = 0;
  if (!deterministic) {
    std::cerr << "bench_fleet: FAIL — fleet week depends on the thread "
                 "count (digest "
              << pool1 << " vs " << pool4 << ")\n";
    rc = 1;
  }
  if (!recovery.recovered || recovery.restarts != 1 ||
      !recovery.neighbors_identical) {
    std::cerr << "bench_fleet: FAIL — supervised recovery violated "
                 "isolation (restarts "
              << recovery.restarts << ", recovered "
              << recovery.recovered << ", neighbors identical "
              << recovery.neighbors_identical << ")\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "\nfleet week bit-identical across pools; one-shard "
                 "crash recovered without perturbing neighbors\n";
  }
  return rc;
}
