#include "fadewich/obs/export.hpp"

#include <cstdio>
#include <limits>
#include <string>

namespace fadewich::obs {

namespace {

/// Locale-independent shortest-ish double rendering (both exporters).
std::string fmt_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void append_json_kv(std::string& out, const std::string& key,
                    const std::string& rendered_value, bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  detail::append_json_escaped(out, key);
  out += "\":" + rendered_value;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const HistogramSample& h : snapshot.histograms) {
    if (!h.help.empty()) out += "# HELP " + h.name + " " + h.help + "\n";
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.bounds.size() ? fmt_number(h.bounds[b]) : "+Inf";
      out += h.name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_sum " + fmt_number(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"histograms\":{";
  bool first = true;
  for (const HistogramSample& h : snapshot.histograms) {
    std::string value = "{\"count\":" + std::to_string(h.count) +
                        ",\"sum\":" + fmt_number(h.sum) +
                        ",\"mean\":" + fmt_number(h.mean()) +
                        ",\"p50\":" + fmt_number(h.percentile(0.50)) +
                        ",\"p95\":" + fmt_number(h.percentile(0.95)) +
                        ",\"p99\":" + fmt_number(h.percentile(0.99)) +
                        ",\"buckets\":[";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      if (b > 0) value += ",";
      value += "{\"le\":";
      value += b < h.bounds.size()
                   ? fmt_number(h.bounds[b])
                   : std::string("\"+Inf\"");
      value += ",\"count\":" + std::to_string(cumulative) + "}";
    }
    value += "]}";
    append_json_kv(out, h.name, value, first);
  }
  out += "}}";
  return out;
}

const HealthBlock* ScrapeReport::find_block(const std::string& name) const {
  for (const HealthBlock& block : health) {
    if (block.name == name) return &block;
  }
  return nullptr;
}

std::string ScrapeReport::to_prometheus() const {
  std::string out = obs::to_prometheus(metrics);
  for (const HealthBlock& block : health) {
    for (const auto& [field, value] : block.fields) {
      const std::string name =
          "fadewich_health_" + block.name + "_" + field;
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + fmt_number(value) + "\n";
    }
  }
  return out;
}

std::string ScrapeReport::to_json() const {
  std::string out = "{\"metrics\":" + obs::to_json(metrics);
  out += ",\"health\":{";
  bool first_block = true;
  for (const HealthBlock& block : health) {
    std::string value = "{";
    bool first = true;
    for (const auto& [field, v] : block.fields) {
      append_json_kv(value, field, fmt_number(v), first);
    }
    value += "}";
    append_json_kv(out, block.name, value, first_block);
  }
  out += "},\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += to_json_line(events[i]);
  }
  out += "]}";
  return out;
}

}  // namespace fadewich::obs
