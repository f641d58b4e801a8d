// Strict environment-knob parsing.
//
// Every runtime knob (FADEWICH_THREADS, FADEWICH_OBS, FADEWICH_SIMD,
// the fleet sweep overrides) is read through these helpers.  A knob that
// is set but malformed throws fadewich::Error naming the variable and
// the offending value instead of silently falling back to a default —
// a fleet run multiplies the cost of a silently-wrong knob by thousands
// of offices, so "loud and immediate" beats "forgiving".  An unset or
// empty variable reads as "not configured" (the shell idiom
// `FADEWICH_THREADS= cmd` clears a knob without unexporting it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fadewich::common {

/// The raw value of `name`, or nullopt when unset or empty.
std::optional<std::string> env_raw(const char* name);

/// Positive-integer knob.  Unset -> `fallback`.  Anything but a plain
/// decimal integer in [1, max_value] throws fadewich::Error.
std::size_t env_count(const char* name, std::size_t fallback,
                      std::size_t max_value = 1u << 20);

/// Strict boolean knob: "1"/"on"/"true" -> true, "0"/"off"/"false" ->
/// false (case-insensitive), unset -> nullopt, anything else throws.
std::optional<bool> env_flag(const char* name);

/// Unsigned 64-bit knob (e.g. FADEWICH_DEFEND_KEYSEED, where 0 is a
/// valid seed).  Unset -> nullopt.  Anything but a plain decimal integer
/// in [0, 2^64) — signs, whitespace, hex, trailing junk, overflow —
/// throws fadewich::Error.
std::optional<std::uint64_t> env_u64(const char* name);

/// Comma-separated positive integers (e.g. FADEWICH_FLEET_OFFICES=
/// "10,100,1000").  Unset -> empty vector; a malformed element or an
/// empty list item throws.
std::vector<std::size_t> env_count_list(const char* name,
                                        std::size_t max_value = 1u << 20);

/// Positive-real knob (e.g. FADEWICH_REPLAY_PACE=2.5 for a replay at
/// 2.5x recorded speed).  Unset -> nullopt.  Anything but a finite
/// decimal number > 0 — including "inf", "nan", hex floats, and
/// trailing junk — throws fadewich::Error.
std::optional<double> env_positive_real(const char* name);

}  // namespace fadewich::common
