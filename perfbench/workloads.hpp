// The three perfbench workloads.  Each builds its inputs from the seed,
// measures for the requested seconds, checks its outputs, and fills a
// Result (end-to-end metrics, or the per-layer ledger when traced).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The paper deployment on the clean, authenticated, defended wire path.
Result run_office_live(const Args& args);

/// The same office under an active-adversary campaign with a
/// deadline-configured station.
Result run_office_hostile(const Args& args);

/// Many 3-radio offices through the sharded ingest plane, the ordered
/// bridge, and lockstep office shards on the exec pool.
Result run_campus_fleet(const Args& args);

}  // namespace perfbench
