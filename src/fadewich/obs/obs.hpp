// Umbrella header for the observability subsystem: metrics, structured
// events, exporters, and the process-wide instances the built-in
// instrumentation writes to.
//
// Quick tour (see DESIGN.md §12 for the full model):
//
//   obs::Counter ticks = obs::registry().counter(
//       "fadewich_core_steps_total", "pipeline ticks processed");
//   ticks.inc();                              // lock-free, sharded
//
//   obs::events().warn("station", "row evicted", tick);
//
//   obs::ScrapeReport report =
//       obs::scrape(obs::registry(), &obs::events());
//   std::cout << report.to_prometheus();      // or report.to_json()
//
// Environment: FADEWICH_OBS=0 disables at runtime, FADEWICH_OBS_SINK
// appends events to a JSONL file.  Compiling with -DFADEWICH_OBS_DISABLE
// removes instrumentation bodies entirely.
#pragma once

#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/export.hpp"
#include "fadewich/obs/metrics.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {

/// Process-wide registry and event log.  Instrumented modules
/// fetch their handles from these on first use; tests may reset() the
/// registry or clear() the log between cases.
inline MetricsRegistry& registry() { return MetricsRegistry::global(); }
inline EventLog& events() { return EventLog::global(); }

}  // namespace fadewich::obs
