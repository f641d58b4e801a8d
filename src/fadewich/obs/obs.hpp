// Umbrella header for the observability subsystem: histograms, structured
// event logs and exporters.  Every histogram and event log under src/
// belongs to the instance that scrapes it.
//
// Quick tour (see DESIGN.md §12 for the full model):
//
//   // One writer: the instance owns the histogram and reports a copy.
//   obs::HistogramSample latency(obs::default_bucket_bounds());
//   latency.observe(0.004);
//
//   // Several writer threads: a sharded family in the owner's registry.
//   obs::MetricsRegistry metrics;
//   obs::Histogram depth = metrics.histogram("fadewich_x_depth", "help");
//   depth.observe(12.0);                      // lock-free, sharded
//
//   // The owner's bounded event log; a caller may attach a JSONL sink.
//   obs::EventLog events;
//   events.warn("station", "row evicted", tick);
//
//   obs::ScrapeReport report;
//   report.metrics = metrics.snapshot();
//   report.metrics.add_histogram(latency, "fadewich_x_seconds", "help");
//   report.events = events.recent();
//   std::cout << report.to_prometheus();      // or report.to_json()
//
// Environment: FADEWICH_OBS=0 disables at runtime.  Compiling with
// -DFADEWICH_OBS_DISABLE removes instrumentation bodies entirely.
#pragma once

#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/export.hpp"
#include "fadewich/obs/metrics.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {

/// A process-wide registry for programs outside the library: every
/// library metric belongs to its instance, and nothing under src/
/// writes here.
inline MetricsRegistry& registry() {
  static MetricsRegistry process_registry;
  return process_registry;
}

}  // namespace fadewich::obs
