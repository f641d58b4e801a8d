#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kMinNs = 50.0;
constexpr double kBinGrowth = 1.005;
constexpr std::size_t kBins = 3300;  // 50 ns * 1.005^3300 ~ 0.7 s

double bin_lower(std::size_t i) {
  return kMinNs * std::pow(kBinGrowth, static_cast<double>(i));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kBins + 1, 0) {}

void LatencyHistogram::add(std::int64_t ns) {
  const double v = static_cast<double>(ns);
  std::size_t i = 0;
  if (v > kMinNs) {
    i = static_cast<std::size_t>(std::log(v / kMinNs) /
                                 std::log(kBinGrowth));
    i = std::min(i, kBins);
  }
  ++bins_[i];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double in_bin = bins_[i];
    if (in_bin > 0.0 && seen + in_bin >= rank) {
      const double frac = (rank - seen) / in_bin;
      const double lo = bin_lower(i);
      return lo + frac * (bin_lower(i + 1) - lo);
    }
    seen += in_bin;
  }
  return bin_lower(kBins);
}

std::vector<std::size_t> select_passes(const std::vector<Pass>& passes,
                                       PassEnd end) {
  std::vector<std::size_t> order(passes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return end == PassEnd::kFastest
               ? passes[a].ns_per_unit() < passes[b].ns_per_unit()
               : passes[a].ns_per_unit() > passes[b].ns_per_unit();
  });
  const auto keep = std::max<std::size_t>(
      3, static_cast<std::size_t>(
             std::ceil(kPassShare * static_cast<double>(passes.size()))));
  order.resize(std::min(keep, order.size()));
  return order;
}

double pass_spread(const std::vector<Pass>& passes) {
  double lo = 0.0;
  double hi = 0.0;
  for (const Pass& p : passes) {
    const double v = p.ns_per_unit();
    if (lo == 0.0 || v < lo) lo = v;
    hi = std::max(hi, v);
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

PassSummary summarize(const std::vector<Pass>& passes,
                      const std::vector<std::size_t>& selected) {
  PassSummary out;
  std::int64_t busy = 0;
  std::uint64_t units = 0;
  LatencyHistogram merged;
  for (const std::size_t i : selected) {
    busy += passes[i].busy_ns;
    units += passes[i].units;
    merged.merge(passes[i].latency);
  }
  if (busy > 0) {
    out.units_per_s = static_cast<double>(units) * 1e9 /
                      static_cast<double>(busy);
  }
  out.p50_us = merged.quantile(0.5) / 1e3;
  out.p999_us = merged.quantile(0.999) / 1e3;
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

namespace {

std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

}  // namespace

void HeapPeak::reset() {
  base_ = heap_in_use();
  peak_ = base_;
  active_ = true;
}

void HeapPeak::sample() {
  if (active_) peak_ = std::max(peak_, heap_in_use());
}

double HeapPeak::peak_mb() const {
  return static_cast<double>(peak_ - base_) / (1024.0 * 1024.0);
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void print_result(const Result& result, bool trace) {
  for (const Metric& m : result.diagnostics) {
    std::cout << "diagnostic " << m.name << " = " << json_number(m.value)
              << " " << m.unit << "\n";
  }
  const std::vector<Metric>& metrics =
      trace ? result.layer_metrics : result.metrics;
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
