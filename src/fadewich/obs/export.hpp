// Exporters: Prometheus text format and JSON snapshots, plus the unified
// ScrapeReport.
//
// A ScrapeReport is the one-call health surface: the merged metrics
// snapshot, any number of named HealthBlocks (bespoke counter structs —
// net::StationHealth, persist::UnitHealth restart counts — flattened to
// key/number pairs by their owning modules), and recent structured
// events.  Both exporters render the same report:
//
//   to_prometheus(): `# HELP` / `# TYPE` / sample lines; histograms as
//     cumulative `_bucket{le=...}` + `_sum` + `_count`; health blocks as
//     gauges named fadewich_health_<block>_<field>.  Metric names may
//     carry a `{label="x"}` suffix which is merged into the sample's
//     label set.
//   to_json(): one document with "metrics", "health" and "events"
//     sections; histograms carry count/sum/p50/p95/p99 plus raw buckets.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/metrics.hpp"

namespace fadewich::obs {

/// Escape a label value for the Prometheus exposition format: backslash,
/// double quote, and newline become \\, \" and \n.
std::string escape_label_value(std::string_view value);

/// Build `base{k1="v1",k2="v2"}` — the registry family key the exporters
/// split back into base name and label set — with values escaped.  Label
/// names must be legal identifiers; values may hold anything.  This is
/// the one sanctioned way to mint per-entity series (per-class
/// counters, say): hand-concatenation skips the escaping.
std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

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

/// Capture the registry (global by default) plus, when given, the event
/// ring.  Modules' bespoke health structs are folded in afterwards via
/// ScrapeReport::health (see net::health_block, persist::health_block,
/// or persist::SupervisedSystem::scrape for the fully-assembled
/// document).
ScrapeReport scrape(const MetricsRegistry& registry = MetricsRegistry::global(),
                    const EventLog* events = nullptr);

}  // namespace fadewich::obs
