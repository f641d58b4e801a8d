// Crash-safe state snapshots.
//
// A snapshot is everything the pipeline has learned (core::SystemState:
// KDE profile, trained SVM + scaler, controller FSM, KMA idle timers,
// session states, training set) plus the central station's health block,
// serialized as one versioned binary blob:
//
//   "FDWS" | u32 version | u64 payload_len | payload | u32 crc32 | "FDWE"
//
// The CRC covers the payload; the end magic makes truncation explicit
// (a partially written file fails before any payload is trusted).  Files
// are written atomically and durably — serialize to memory, write and
// fsync `<path>.tmp`, rename it, fsync the directory — so neither a
// crash nor a power loss mid-write leaves a half snapshot under the
// final name.  Every decode error is a fadewich::Error, so callers (the
// RecoveryManager) can fall back across the snapshot ring instead of
// aborting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "fadewich/core/system.hpp"
#include "fadewich/net/central_station.hpp"

namespace fadewich::persist {

// v2: StationHealth gained duplicates_rejected + malformed (PR 8).
inline constexpr std::uint32_t kSnapshotVersion = 2;

struct Snapshot {
  core::SystemState system;
  net::StationHealth station;  // zeroed when no central station is used
};

/// Serialize to the framed binary format (header + payload + CRC).
std::string encode_snapshot(const Snapshot& snapshot);

/// Parse and validate a framed snapshot.  Throws fadewich::Error on bad
/// magic, unsupported version, truncation, CRC mismatch, or an absurd
/// count inside the payload.
Snapshot decode_snapshot(const std::string& bytes);

/// Atomic, durable write: the snapshot appears at `path` completely or
/// not at all, and once this returns it survives a power loss.
void save_snapshot(const Snapshot& snapshot, const std::string& path);

/// Load + validate a snapshot file.  Throws fadewich::Error as above;
/// a missing/unreadable file throws with a "cannot open" message so
/// callers can distinguish transient I/O from corruption.
Snapshot load_snapshot(const std::string& path);

}  // namespace fadewich::persist
