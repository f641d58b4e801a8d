// Deterministic fault injection for the sensor reporting path.
//
// The paper assumes a reliable secure channel between sensors and the
// central station; real deployments lose, delay, and duplicate reports,
// and whole sensors drop out.  FaultInjector sits between the devices and
// the station's input batch and injects exactly those faults, per
// directed link:
//
//   - drop: the report never reaches the batch
//   - delay: the report is buffered and published `1..max_delay_ticks`
//     beacon rounds later (delayed traffic naturally reorders)
//   - duplicate: the report is published twice
//   - outage: a device is fully offline for a tick interval — it neither
//     beacons nor reports, so every measurement it transmits or receives
//     is dropped
//
// Determinism: each directed link owns an Rng seeded with
// exec::task_seed(seed, stream_index), and draws only for its own
// reports in report order.  Fault decisions are therefore a pure function
// of (seed, per-link report sequence) — independent of thread count, of
// other links' traffic, and of batch interleaving — so faulty runs are
// exactly reproducible.  A disabled config (all probabilities zero, no
// outages) never draws and passes reports through byte-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/net/measurement.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::net {

/// One whole-sensor dropout: `device` is offline for ticks [from, to].
struct SensorOutage {
  DeviceId device = 0;
  Tick from = 0;
  Tick to = 0;
};

struct FaultConfig {
  double drop_probability = 0.0;       // per report
  double delay_probability = 0.0;      // per surviving report
  Tick max_delay_ticks = 2;            // uniform delay in [1, max]
  double duplicate_probability = 0.0;  // per surviving report
  std::vector<SensorOutage> outages;   // dropout/recovery schedule

  bool enabled() const {
    return drop_probability > 0.0 || delay_probability > 0.0 ||
           duplicate_probability > 0.0 || !outages.empty();
  }
};

class FaultInjector {
 public:
  /// Counters of every fault injected so far.
  struct Counters {
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;         // random per-report drops
    std::uint64_t outage_dropped = 0;  // drops due to sensor outages
    std::uint64_t delayed = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delivered = 0;  // reports that reached the batch (incl.
                                  // duplicates and released delays)
  };

  /// `device_count` radios as in CentralStation; links are all ordered
  /// (tx, rx) pairs.  Requires device_count >= 2.
  FaultInjector(std::size_t device_count, FaultConfig config,
                std::uint64_t seed);

  const FaultConfig& config() const { return config_; }
  std::size_t device_count() const { return device_count_; }

  /// Submit one report.  It is dropped, held back for later delivery, or
  /// appended to `out` (possibly twice), per the configured fault model.
  void offer(const Measurement& m, std::vector<Measurement>& out);

  /// Append every held-back report whose delivery tick is <= `now`.
  /// Call once per beacon round, after the round's offers.
  void advance(Tick now, std::vector<Measurement>& out);

  /// Reports still held back for future delivery.
  std::size_t in_flight() const { return delayed_.size(); }

  const Counters& counters() const { return counters_; }

 private:
  struct DelayedReport {
    Tick due = 0;
    std::uint64_t sequence = 0;  // tie-break: preserves offer order
    Measurement measurement;
  };

  std::size_t link_index(DeviceId tx, DeviceId rx) const;
  bool in_outage(DeviceId device, Tick tick) const;

  std::size_t device_count_;
  FaultConfig config_;
  std::vector<Rng> link_rngs_;          // one per directed link
  std::deque<DelayedReport> delayed_;   // sorted by (due, sequence)
  std::uint64_t next_sequence_ = 0;
  Counters counters_;
};

/// Flatten injector counters for obs::ScrapeReport.
obs::HealthBlock health_block(const FaultInjector::Counters& counters);

}  // namespace fadewich::net
