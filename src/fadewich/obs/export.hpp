// Exporters: Prometheus text format and JSON snapshots, plus the unified
// ScrapeReport.
//
// A ScrapeReport is the one-call health surface: histograms (each
// owner's named copies plus, for multi-writer distributions, its
// registry's snapshot), any number of named HealthBlocks (an instance's
// own counts — the detector's windows, the station's reports, restart
// counts — flattened to key/number pairs by their owning modules), and
// the owner's own recent structured events.  The owner fills each
// section itself (see persist::SupervisedSystem::scrape and
// fleet::Fleet::scrape for assembled documents).  Both exporters render
// the same report:
//
//   to_prometheus(): `# HELP` / `# TYPE` / sample lines; histograms as
//     cumulative `_bucket{le=...}` + `_sum` + `_count`; health blocks as
//     gauges named fadewich_health_<block>_<field>.  The only label is a
//     bucket's `le`.
//   to_json(): one document with "metrics", "health" and "events"
//     sections; histograms carry count/sum/p50/p95/p99 plus raw buckets.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/metrics.hpp"

namespace fadewich::obs {

/// A bespoke health struct flattened for export.  Field order is
/// preserved in both output formats.
struct HealthBlock {
  std::string name;  // e.g. "station", "supervisor"
  std::vector<std::pair<std::string, double>> fields;

  void add(std::string field, double value) {
    fields.emplace_back(std::move(field), value);
  }
};

/// A block expands per-unit entries (one fleet office, one plane shard)
/// only for deployments of at most this many units; larger ones report
/// totals alone, so a scrape's size stays bounded.
inline constexpr std::size_t kPerUnitHealthCap = 512;

std::string to_prometheus(const MetricsSnapshot& snapshot);
std::string to_json(const MetricsSnapshot& snapshot);

struct ScrapeReport {
  MetricsSnapshot metrics;
  std::vector<HealthBlock> health;
  std::vector<Event> events;

  const HealthBlock* find_block(const std::string& name) const;

  std::string to_prometheus() const;
  std::string to_json() const;
};

}  // namespace fadewich::obs
