#include "fadewich/fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"

namespace fadewich::fleet {

namespace {

constexpr const char* kLatencyName = "fadewich_fleet_deauth_latency_seconds";

/// An office's snapshot directory under the root.  Kept as office-<i> so
/// an existing fleet's rings still recover.
std::string ring_directory(const std::string& root, std::size_t office) {
  return root + "/office-" + std::to_string(office);
}

/// An office's unit name in the supervisor block: office_<i>, so its
/// exported field names stay legal Prometheus metric names.
std::string unit_name(std::size_t office) {
  return "office_" + std::to_string(office);
}

}  // namespace

Fleet::Fleet(FleetConfig config, exec::ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::global()) {
  if (config_.offices < 1) throw Error("fleet config: offices must be >= 1");

  fleet_latency_ = metrics_.histogram(
      kLatencyName, "Leave-to-deauthentication latency across the fleet");
  ShardMetrics metrics;
  metrics.deauth_latency = fleet_latency_;

  shards_.resize(config_.offices);
  pool_->parallel_for(0, config_.offices, [&](std::size_t i) {
    auto shard = std::make_unique<OfficeShard>(
        i, exec::task_seed(config_.seed, i), config_.shard);
    shard->set_metrics(metrics);
    shards_[i] = std::move(shard);
  });

  if (supervised()) {
    retired_.assign(shards_.size(), false);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      persist::RecoveryConfig recovery = config_.recovery;
      recovery.directory = ring_directory(config_.recovery.directory, i);
      shards_[i]->enable_persistence(std::move(recovery));
    }
  }
}

std::size_t Fleet::restart_faulted(Tick boundary) {
  std::size_t restarts = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    OfficeShard& shard = *shards_[i];
    if (!shard.faulted() || retired_[i]) continue;
    const Tick faulted_at = shard.tick();
    persist::RecoveryReport report;
    if (!shard.restart(report)) {
      retired_[i] = true;
      continue;
    }
    persist::log_recovery(events_, report, {{"office", std::to_string(i)}},
                          faulted_at);
    ++restarts;
    shard.run_until(boundary);
    retired_[i] = shard.faulted();
  }
  return restarts;
}

RunStats Fleet::run_week(Tick ticks) {
  FADEWICH_EXPECTS(ticks >= 0);
  const auto start = std::chrono::steady_clock::now();
  const Tick target = cursor_ + ticks;
  const auto quantum = static_cast<Tick>(config_.shard.block_ticks);
  std::size_t restarts = 0;

  while (cursor_ < target) {
    const Tick boundary = std::min(cursor_ + quantum, target);
    pool_->parallel_for(0, shards_.size(), [&](std::size_t i) {
      shards_[i]->run_until(boundary);
    });
    if (supervised()) restarts += restart_faulted(boundary);
    cursor_ = boundary;
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RunStats stats;
  stats.ticks = ticks;
  stats.wall_seconds = wall;
  stats.restarts = restarts;
  if (wall > 0.0) {
    stats.ticks_per_sec =
        static_cast<double>(ticks) * static_cast<double>(offices()) / wall;
    stats.offices_per_sec = static_cast<double>(offices()) / wall;
  }
  last_run_ = stats;
  return stats;
}

void Fleet::inject_crash(std::size_t office, Tick tick) {
  FADEWICH_EXPECTS(office < shards_.size());
  if (tick < cursor_) {
    throw Error("fleet: cannot inject a crash behind the cursor");
  }
  shards_[office]->kill_at(tick);
}

const OfficeShard& Fleet::shard(std::size_t office) const {
  FADEWICH_EXPECTS(office < shards_.size());
  return *shards_[office];
}

bool Fleet::retired(std::size_t office) const {
  FADEWICH_EXPECTS(office < shards_.size());
  return supervised() && retired_[office];
}

std::uint32_t Fleet::fleet_digest() const {
  Crc32 digest;
  for (const auto& shard : shards_) {
    const std::uint32_t d = shard->digest();
    digest.update(&d, sizeof(d));
  }
  return digest.value();
}

std::uint32_t Fleet::shard_digest(std::size_t office) const {
  FADEWICH_EXPECTS(office < shards_.size());
  return shards_[office]->digest();
}

std::uint64_t Fleet::total_deauths() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->deauths();
  return total;
}

std::uint64_t Fleet::total_spurious_deauths() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->spurious_deauths();
  return total;
}

std::uint64_t Fleet::total_restarts() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->restores();
  return total;
}

double Fleet::memory_bytes_per_office() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->memory_bytes();
  return static_cast<double>(total) / static_cast<double>(shards_.size());
}

obs::ScrapeReport Fleet::scrape() const {
  obs::ScrapeReport report;
  report.metrics = metrics_.snapshot();
  report.events = events_.recent();

  obs::HealthBlock fleet;
  fleet.name = "fleet";
  fleet.add("offices", static_cast<double>(offices()));
  fleet.add("cursor_tick", static_cast<double>(cursor_));
  fleet.add("deauths", static_cast<double>(total_deauths()));
  fleet.add("spurious_deauths",
            static_cast<double>(total_spurious_deauths()));
  fleet.add("restarts", static_cast<double>(total_restarts()));
  fleet.add("memory_bytes_per_office", memory_bytes_per_office());
  fleet.add("ticks_per_sec", last_run_.ticks_per_sec);
  fleet.add("offices_per_sec", last_run_.offices_per_sec);
  // p99 from merged bucket counts: deterministic across thread counts,
  // unlike the racy-but-harmless floating sum.
  const obs::HistogramSample* latency =
      report.metrics.find_histogram(kLatencyName);
  fleet.add("deauth_latency_p99_seconds",
            latency != nullptr ? latency->percentile(0.99) : 0.0);
  if (offices() <= obs::kPerUnitHealthCap) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string office = unit_name(i);
      fleet.add(office + "_deauths",
                static_cast<double>(shards_[i]->deauths()));
      fleet.add(office + "_spurious_deauths",
                static_cast<double>(shards_[i]->spurious_deauths()));
    }
  }
  report.health.push_back(std::move(fleet));

  if (supervised()) {
    std::vector<persist::UnitHealth> units;
    units.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      units.push_back({unit_name(i), shards_[i]->restores(), retired_[i]});
    }
    report.health.push_back(persist::health_block(units));
  }
  return report;
}

}  // namespace fadewich::fleet
