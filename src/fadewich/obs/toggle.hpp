// Observability kill switches.
//
// The telemetry that costs more than an integer add — sharded registry
// histograms, clock reads for latency samples, and event-log calls — is
// gated twice.  (An instance's own event counts are plain fields and
// always count.)  At compile time, defining FADEWICH_OBS_DISABLE turns
// every registry handle and event-log call into an empty inline body and
// enabled() into a constant false.  At runtime (the default build), every
// gated site first checks enabled() — one relaxed atomic load — so a
// deployment can switch telemetry off without rebuilding.  The initial
// value comes from the FADEWICH_OBS environment variable ("0" or "off"
// disables; anything else, including unset, enables) and can be flipped
// programmatically.
#pragma once

namespace fadewich::obs {

#if defined(FADEWICH_OBS_DISABLE)
inline constexpr bool kCompiledIn = false;
inline bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;

/// Runtime toggle: one relaxed atomic load, safe from any thread.
bool enabled();

/// Flip the runtime toggle.  Visible to all threads; in-flight metric
/// updates on other threads may still land for a few instructions.
void set_enabled(bool on);
#endif

}  // namespace fadewich::obs
