#include "fadewich/persist/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::persist {

namespace fs = std::filesystem;

namespace {

double seconds_since(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

constexpr char kPrefix[] = "snap-";
constexpr char kSuffix[] = ".fdws";

/// Parse the sequence number out of "snap-%08llu.fdws"; nullopt for
/// anything else (foreign files in the directory are left alone).
std::optional<std::uint64_t> parse_seq(const std::string& name) {
  const std::size_t prefix_len = sizeof(kPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

std::string snapshot_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(seq), kSuffix);
  return buf;
}

/// (seq, path) pairs of every snapshot in the directory, oldest first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const auto seq = parse_seq(entry.path().filename().string());
    if (seq) found.emplace_back(*seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

RecoveryManager::RecoveryManager(RecoveryConfig config)
    : config_(std::move(config)) {
  if (config_.directory.empty()) {
    throw Error("recovery config: directory must be non-empty");
  }
  if (config_.ring_size < 1) {
    throw Error("recovery config: ring_size must be >= 1");
  }
  if (config_.max_retries < 1) {
    throw Error("recovery config: max_retries must be >= 1");
  }
  if (!(config_.backoff_ms >= 0.0)) {
    throw Error("recovery config: backoff_ms must be >= 0");
  }
  if (config_.checkpoint_period < 1) {
    throw Error("recovery config: checkpoint_period must be >= 1");
  }
  if (config_.max_restarts < 1) {
    throw Error("recovery config: max_restarts must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec && !fs::is_directory(config_.directory)) {
    throw Error("recovery: cannot create directory " + config_.directory);
  }
  for (const auto& [seq, path] : list_snapshots(config_.directory)) {
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

std::string RecoveryManager::checkpoint(const Snapshot& snapshot) {
  const bool timed = obs::enabled();
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  const std::string path =
      (fs::path(config_.directory) / snapshot_name(next_seq_)).string();
  save_snapshot(snapshot, path);
  ++next_seq_;
  ++checkpoints_written_;

  auto existing = list_snapshots(config_.directory);
  while (existing.size() > config_.ring_size) {
    std::error_code ec;
    fs::remove(existing.front().second, ec);
    existing.erase(existing.begin());
  }
  if (timed) checkpoint_seconds_.observe(seconds_since(started));
  return path;
}

std::string RecoveryManager::checkpoint(const core::FadewichSystem& system) {
  return checkpoint(Snapshot{system.export_state()});
}

bool RecoveryManager::checkpoint_if_due(const core::FadewichSystem& system) {
  if (system.tick() % config_.checkpoint_period != 0) return false;
  checkpoint(system);
  return true;
}

bool RecoveryManager::try_restart() {
  if (restarts_ >= config_.max_restarts) return false;
  ++restarts_;
  return true;
}

std::optional<Snapshot> RecoveryManager::recover(core::FadewichSystem& into,
                                                 RecoveryReport& report) {
  const bool timed = obs::enabled();
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  report = RecoveryReport{};
  std::optional<Snapshot> snapshot = walk_ring(into, report);
  if (timed) recover_seconds_.observe(seconds_since(started));
  return snapshot;
}

std::optional<Snapshot> RecoveryManager::walk_ring(core::FadewichSystem& into,
                                                   RecoveryReport& out) const {
  auto existing = list_snapshots(config_.directory);
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    const std::string& path = it->second;
    std::string last_reason;
    for (std::size_t attempt = 0; attempt < config_.max_retries; ++attempt) {
      try {
        Snapshot snapshot = load_snapshot(path);
        // A snapshot from another deployment loads fine but does not
        // fit; import_state leaves `into` unchanged when it throws.
        into.import_state(snapshot.system);
        out.recovered_path = path;
        return snapshot;
      } catch (const Error& e) {
        last_reason = e.what();
        // Corruption is permanent: the file's bytes won't change, so
        // retrying only makes sense for transient open/read failures.
        if (last_reason.find("cannot open") == std::string::npos &&
            last_reason.find("cannot read") == std::string::npos) {
          break;
        }
        if (attempt + 1 < config_.max_retries && config_.backoff_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              config_.backoff_ms));
        }
      }
    }
    out.rejected.push_back({path, last_reason});
  }
  out.cold_start = true;
  return std::nullopt;
}

void RecoveryManager::scrape_into(obs::ScrapeReport& report) const {
  report.metrics.add_histogram(checkpoint_seconds_,
                               "fadewich_persist_checkpoint_seconds",
                               "checkpoint write + ring prune wall time");
  report.metrics.add_histogram(recover_seconds_,
                               "fadewich_persist_recover_seconds",
                               "recover() wall time");
}

std::vector<std::string> RecoveryManager::ring() const {
  std::vector<std::string> paths;
  for (auto& [seq, path] : list_snapshots(config_.directory)) {
    paths.push_back(path);
  }
  return paths;
}

void log_recovery(obs::EventLog& log, const RecoveryReport& report,
                  const obs::EventFields& context, Tick tick) {
  for (const RecoveryAttempt& rejected : report.rejected) {
    obs::EventFields fields = context;
    fields.emplace_back("path", rejected.path);
    fields.emplace_back("reason", rejected.reason);
    log.warn("persist", "snapshot rejected during recovery", tick,
             std::move(fields));
  }
  obs::EventFields fields = context;
  if (report.cold_start) {
    log.warn("persist", "cold start: no usable snapshot", tick,
             std::move(fields));
  } else {
    fields.emplace_back("path", report.recovered_path);
    log.info("persist", "recovered from snapshot", tick, std::move(fields));
  }
}

obs::HealthBlock health_block(std::span<const UnitHealth> units) {
  obs::HealthBlock block;
  block.name = "supervisor";
  std::uint64_t total_restarts = 0;
  bool all_healthy = true;
  for (const UnitHealth& unit : units) {
    total_restarts += unit.restarts;
    all_healthy = all_healthy && !unit.retired;
  }
  block.add("modules", static_cast<double>(units.size()));
  block.add("total_restarts", static_cast<double>(total_restarts));
  block.add("all_healthy", all_healthy ? 1.0 : 0.0);
  for (const UnitHealth& unit : units) {
    block.add(unit.name + "_status", unit.retired ? 2.0 : 0.0);
    block.add(unit.name + "_restarts", static_cast<double>(unit.restarts));
  }
  return block;
}

}  // namespace fadewich::persist
