#include "fadewich/obs/export.hpp"

#include <cstdio>
#include <limits>
#include <string>

#include "fadewich/common/simd.hpp"

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

/// Split `fadewich_x_total{label="2"}` into base name and the inner
/// label list (empty when the name carries no labels).
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    return {name, ""};
  }
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

void append_help_type(std::string& out, const std::string& base,
                      const std::string& help, const char* type,
                      std::string& last_base) {
  if (base == last_base) return;  // one header per family of label variants
  last_base = base;
  if (!help.empty()) {
    out += "# HELP " + base + " " + help + "\n";
  }
  out += "# TYPE " + base + " ";
  out += type;
  out += "\n";
}

std::string join_labels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

std::string sample_line(const std::string& base, const std::string& labels,
                        const std::string& value) {
  if (labels.empty()) return base + " " + value + "\n";
  return base + "{" + labels + "} " + value + "\n";
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

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(base);
  if (labels.size() == 0) return out;
  out += "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += name;
    out += "=\"";
    out += escape_label_value(value);
    out += "\"";
  }
  out += "}";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_base;
  for (const CounterSample& c : snapshot.counters) {
    const auto [base, labels] = split_labels(c.name);
    append_help_type(out, base, c.help, "counter", last_base);
    out += sample_line(base, labels, std::to_string(c.value));
  }
  last_base.clear();
  for (const GaugeSample& g : snapshot.gauges) {
    const auto [base, labels] = split_labels(g.name);
    append_help_type(out, base, g.help, "gauge", last_base);
    out += sample_line(base, labels, fmt_number(g.value));
  }
  last_base.clear();
  for (const HistogramSample& h : snapshot.histograms) {
    const auto [base, labels] = split_labels(h.name);
    append_help_type(out, base, h.help, "histogram", last_base);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.bounds.size() ? fmt_number(h.bounds[b]) : "+Inf";
      out += sample_line(base + "_bucket",
                         join_labels(labels, "le=\"" + le + "\""),
                         std::to_string(cumulative));
    }
    out += sample_line(base + "_sum", labels, fmt_number(h.sum));
    out += sample_line(base + "_count", labels, std::to_string(h.count));
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSample& c : snapshot.counters) {
    append_json_kv(out, c.name, std::to_string(c.value), first);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : snapshot.gauges) {
    append_json_kv(out, g.name, fmt_number(g.value), first);
  }
  out += "},\"histograms\":{";
  first = true;
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

ScrapeReport scrape(const MetricsRegistry& registry, const EventLog* events) {
  ScrapeReport report;
  report.metrics = registry.snapshot();
  // The kernel dispatch is resolved once per process, outside any
  // registry; stamp it into every scrape so dashboards can tell which
  // ISA (and FADEWICH_SIMD override) a deployment is actually running.
  GaugeSample isa;
  isa.name = std::string("fadewich_simd_isa{isa=\"") +
             simd::isa_name(simd::active_isa()) + "\"}";
  isa.help = "active SIMD kernel ISA (0=scalar, 1=sse2, 2=neon, 3=avx2)";
  isa.value = static_cast<double>(simd::active_isa());
  report.metrics.gauges.push_back(std::move(isa));
  if (events != nullptr) report.events = events->recent();
  return report;
}

}  // namespace fadewich::obs
