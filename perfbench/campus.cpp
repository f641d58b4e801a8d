// campus_fleet: many 3-radio offices through the campus front door,
//
//   chunk bytes -> net::IngestPlane lanes -> fleet::IngestBridge
//     (ordered CentralStation path) -> fleet::OfficeShard::run_until,
//     all offices in lockstep via exec::ThreadPool::parallel_for
//     -> IngestBridge::trim_before after every chunk
//
// The RSSI is a simulated office day's streams for three sensors: each
// office replays its own slice of the day (offset per office), forward
// then backward, so every pass is content-identical and seamless.  The
// shards' own occupancy script supplies input events and ground truth.
// Defend and the generic station path are not on this path: the plane
// sink receives measurements, not frames.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/ingest_bridge.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/sim/schedule.hpp"
#include "fadewich/sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fadewich;

namespace {

constexpr std::size_t kOffices = 256;
constexpr std::size_t kDevices = 3;
constexpr std::size_t kStreams = kDevices * (kDevices - 1);
constexpr std::size_t kWorkstations = 2;
// Fewer pool threads than cores: stepping on every core of the shared
// host met 2x outliers; two workers stay steady.  parallel_for runs on
// the workers and the calling thread.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kConcurrency = kThreads + 1;
constexpr std::size_t kLanes = 2;
// The default ShardConfig occupancy script, in 5 Hz ticks: a settle
// prelude, then per workstation a cycle of leave burst, absence, enter
// burst and rest; one round cycles every workstation.  Training ends
// after the prelude and four rounds.
constexpr Tick kSettleTicks = 100;
constexpr Tick kBurstTicks = 30;
constexpr Tick kAwayTicks = 125;
constexpr Tick kRestTicks = 100;
constexpr Tick kCycleTicks = 2 * kBurstTicks + kAwayTicks + kRestTicks;
constexpr Tick kRoundTicks = kCycleTicks * kWorkstations;
constexpr Tick kTrainTicks = kSettleTicks + 4 * kRoundTicks;
// Set-up delivers one tick more: the ordered station holds the newest
// tick until the next one arrives, and the shards step only what it
// released.
constexpr Tick kSetupTicks = kTrainTicks + 1;
// One pass is one round (114 simulated seconds) in ten chunks.
constexpr Tick kPassTicks = kRoundTicks;
constexpr std::size_t kPassChunks = 10;
constexpr Tick kChunkTicks = kPassTicks / static_cast<Tick>(kPassChunks);
// Per-office latency samples of one pass: one per (chunk, office) cell.
constexpr std::size_t kPassCells = kPassChunks * kOffices;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMaxPasses = 512;
constexpr std::size_t kMinPasses = 8;
// A run's throughput and p50 come from its fastest quarter of passes.
// Spread over three threads, the single-core contention plateaus average
// out, and the fastest passes are the ones that repeat.  Its p999 comes
// from every pass, through the per-cell medians (cell_p999_us).
constexpr PassEnd kPassEnd = PassEnd::kFastest;
// Untraced runs check the single-lane digests on every 32nd office;
// traced runs on all of them.
constexpr std::size_t kReferenceStride = 32;
constexpr double kDeauthBucket = 0.2;  // one tick at 5 Hz
constexpr std::size_t kDeauthBuckets = 600;

/// A day of the Fig. 6 office recorded by three sensors, as int8 columns
/// in station stream order (tx-major), plus the movements the campus
/// splices into each office's occupancy script.
struct CampusInput {
  sim::Recording recording;
  std::vector<const std::int8_t*> column;
  // Start ticks of recorded movements: leaves of workstations 0 and 1,
  // and entries.  Each is followed by >= 45 s without another movement.
  std::array<std::vector<Tick>, kWorkstations> leaves;
  std::vector<Tick> enters;
};

CampusInput make_input(std::uint64_t seed, exec::ThreadPool& pool) {
  sim::DayScheduleConfig day;
  day.day_length = 4.0 * 3600.0;
  day.start_seated = false;
  day.min_breaks = 8;
  day.max_breaks = 10;
  day.break_min = 2.0 * 60.0;
  day.break_max = 10.0 * 60.0;
  Rng rng(exec::task_seed(seed, 10));
  const sim::WeekSchedule week =
      sim::generate_week_schedule(day, 3, 1, rng);
  sim::SimulationConfig config;
  config.seed = exec::task_seed(seed, 11);
  const rf::FloorPlan plan = rf::paper_office().with_sensor_count(kDevices);
  CampusInput in{sim::simulate_week(plan, week, config, &pool), {}, {}, {}};
  const sim::Recording& rec = in.recording;
  for (std::size_t tx = 0; tx < kDevices; ++tx) {
    for (std::size_t rx = 0; rx < kDevices; ++rx) {
      if (rx != tx) {
        in.column.push_back(rec.stream(rec.stream_index(tx, rx)).data());
      }
    }
  }
  for (const sim::GroundTruthEvent& e : rec.events()) {
    const Tick start = rec.rate().to_ticks_floor(e.movement_start);
    if (start + kCycleTicks >= rec.tick_count()) continue;
    if (e.kind == sim::EventKind::kEnter) {
      in.enters.push_back(start);
    } else if (e.workstation < kWorkstations) {
      in.leaves[e.workstation].push_back(start);
    }
  }
  if (in.enters.empty() || in.leaves[0].empty() || in.leaves[1].empty()) {
    throw Error("campus: the simulated day lacks leaves or entries");
  }
  return in;
}

/// Recording tick office `office` replays at pipeline tick `t`.  The
/// RSSI follows the shard's occupancy script: during a workstation's
/// leave burst and absence the office replays a recorded leave of that
/// workstation, during its enter burst and rest a recorded entry, and
/// during the settle prelude the quiet tail of an entry.  Every office
/// splices its own choice of recorded movements.  The script repeats
/// every round, so one pass (one round) is content-identical to the next.
Tick source_tick(const CampusInput& in, std::size_t office, Tick t) {
  const auto pick = [office](const std::vector<Tick>& starts,
                             std::size_t salt) {
    return starts[(office * 7 + salt) % starts.size()];
  };
  if (t < kSettleTicks) return pick(in.enters, 0) + kBurstTicks + t;
  const Tick u = (t - kSettleTicks) % kRoundTicks;
  const auto w = static_cast<std::size_t>(u / kCycleTicks);
  const Tick o = u % kCycleTicks;
  const Tick leave_span = kBurstTicks + kAwayTicks;
  if (o < leave_span) return pick(in.leaves[w], w) + o;
  return pick(in.enters, 1 + w) + (o - leave_span);
}

void encode_chunk(const CampusInput& in, Tick from, Tick count,
                  std::vector<std::uint64_t>& seq,
                  std::vector<std::uint8_t>& out) {
  out.clear();
  std::vector<net::WireReport> reports;
  for (Tick t = from; t < from + count; ++t) {
    for (std::size_t office = 0; office < kOffices; ++office) {
      const Tick src = source_tick(in, office, t);
      for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
        reports.clear();
        for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
          if (rx == tx) continue;
          const std::size_t s =
              static_cast<std::size_t>(tx) * (kDevices - 1) +
              (rx < tx ? rx : rx - 1);
          reports.push_back({rx, in.column[s][src]});
        }
        const auto station = static_cast<std::uint16_t>(office);
        net::encode_frame({station, seq[office]++, t, tx}, reports, out);
      }
    }
  }
}

fleet::ShardConfig shard_config() {
  fleet::ShardConfig config;
  config.streams = kStreams;
  config.workstations = kWorkstations;
  config.system = fleet::default_shard_system();
  return config;
}

/// One campus front door plus its offices.  `offices` lists the offices
/// this instance steps (all of them for the measured campus, a subset
/// for the single-lane reference).
struct Campus {
  Campus(bool serial_reference, const std::vector<std::size_t>& offices,
         std::uint64_t seed, exec::ThreadPool& pool,
         const fleet::ShardMetrics& metrics)
      : plane(plane_config(serial_reference), &pool),
        bridge(fleet::BridgeConfig{kOffices, kDevices, {}}),
        stepped(offices),
        sink_ns(kOffices, 0),
        busy_ns(offices.size(), 0),
        done_ns(offices.size(), 0),
        latency_ns(offices.size(), 0),
        wanted(kOffices, 0) {
    for (const std::size_t office : offices) {
      shards.push_back(std::make_unique<fleet::OfficeShard>(
          office, exec::task_seed(seed, office), shard_config()));
      shards.back()->set_metrics(metrics);
      bridge.attach(*shards.back(), office);
      wanted[office] = 1;
    }
  }

  static net::PlaneConfig plane_config(bool serial_reference) {
    net::PlaneConfig config;
    config.lanes = serial_reference ? 1 : kLanes;
    config.shards = kOffices;
    config.serial = serial_reference;
    return config;
  }

  net::IngestPlane plane;
  fleet::IngestBridge bridge;
  std::vector<std::size_t> stepped;  // office index of shards[i]
  std::vector<std::unique_ptr<fleet::OfficeShard>> shards;
  std::vector<std::int64_t> sink_ns;  // per office: one writer at a time
  std::vector<std::int64_t> busy_ns;  // per shard, current chunk
  std::vector<std::int64_t> done_ns;  // per shard, current chunk
  std::vector<std::int64_t> latency_ns;  // per shard, current chunk
  std::vector<std::uint8_t> wanted;   // per office
  std::vector<std::uint64_t> seq = std::vector<std::uint64_t>(kOffices, 0);
  Tick boundary = 0;
};

struct ChunkTimes {
  std::int64_t plane_ns = 0;
  std::int64_t step_ns = 0;
  std::int64_t trim_ns = 0;
  std::int64_t bridge_ns = 0;  // summed over offices (CPU time)
  std::int64_t busy_ns = 0;    // summed over shards (CPU time)
  double skew = 0.0;           // slowest over mean shard busy
  std::uint64_t reports = 0;
  std::uint64_t office_ticks = 0;
};

/// Drive one chunk of bytes through `campus`.  Returns the stage times;
/// per-office latencies are left in `campus.latency_ns` and go to `pass`
/// when given.
ChunkTimes run_chunk(Campus& campus, const std::vector<std::uint8_t>& bytes,
                     exec::ThreadPool& pool, const BusyClock& clock,
                     Pass* pass, bool traced) {
  ChunkTimes times;
  const std::uint64_t reports_before = campus.plane.counters().reports_delivered;
  std::fill(campus.sink_ns.begin(), campus.sink_ns.end(), 0);
  const std::int64_t t0 = clock.now();
  campus.plane.replay(bytes, [&campus, traced](
                                 std::size_t office,
                                 std::span<const net::Measurement> batch) {
    if (campus.wanted[office] == 0) return;
    if (!traced) {
      campus.bridge.ingest(office, batch);
      return;
    }
    const std::int64_t start = wall_ns();
    campus.bridge.ingest(office, batch);
    campus.sink_ns[office] += wall_ns() - start;
  });
  const std::int64_t t1 = clock.now();
  Tick boundary = std::numeric_limits<Tick>::max();
  for (const std::size_t office : campus.stepped) {
    boundary = std::min(boundary, campus.bridge.rows_ready_through(office));
  }
  pool.parallel_for(0, campus.shards.size(), [&](std::size_t i) {
    const std::int64_t start = wall_ns();
    campus.shards[i]->run_until(boundary);
    const std::int64_t end = wall_ns();
    campus.busy_ns[i] = end - start;
    campus.done_ns[i] = clock.now();
  });
  const std::int64_t t2 = clock.now();
  for (const std::size_t office : campus.stepped) {
    campus.bridge.trim_before(office, boundary);
  }
  const std::int64_t t3 = clock.now();

  times.plane_ns = t1 - t0;
  times.step_ns = t2 - t1;
  times.trim_ns = t3 - t2;
  times.reports = campus.plane.counters().reports_delivered - reports_before;
  times.office_ticks = static_cast<std::uint64_t>(boundary - campus.boundary) *
                       campus.shards.size();
  campus.boundary = boundary;
  std::int64_t slowest = 0;
  for (std::size_t i = 0; i < campus.shards.size(); ++i) {
    times.busy_ns += campus.busy_ns[i];
    slowest = std::max(slowest, campus.busy_ns[i]);
    campus.latency_ns[i] = campus.done_ns[i] - t0;
    if (pass != nullptr) pass->latency.add(campus.latency_ns[i]);
  }
  for (const std::int64_t ns : campus.sink_ns) times.bridge_ns += ns;
  if (times.busy_ns > 0) {
    times.skew = static_cast<double>(slowest) *
                 static_cast<double>(campus.shards.size()) /
                 static_cast<double>(times.busy_ns);
  }
  if (pass != nullptr) pass->units += times.office_ticks;
  return times;
}

struct PassLedger {
  bool traced = false;
  std::int64_t plane_ns = 0;
  std::int64_t step_ns = 0;
  std::int64_t trim_ns = 0;
  std::int64_t bridge_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t reports = 0;
  std::uint64_t office_ticks = 0;
  std::vector<double> skews;

  void add(const ChunkTimes& t) {
    plane_ns += t.plane_ns;
    step_ns += t.step_ns;
    trim_ns += t.trim_ns;
    bridge_ns += t.bridge_ns;
    busy_ns += t.busy_ns;
    reports += t.reports;
    office_ticks += t.office_ticks;
    skews.push_back(t.skew);
  }
};

/// Exact percentile of the tick-quantised deauthentication latencies
/// the shards observed (one histogram bucket per tick).
double deauth_percentile(const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    seen += counts[k];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return kDeauthBucket * static_cast<double>(k);
    }
  }
  return kDeauthBucket * static_cast<double>(counts.size());
}

/// p999 of a pass's per-office latencies, in microseconds, with each
/// (chunk, office) cell taken as its median over `passes`.  A cell
/// carries the same work in every pass, so its median is its latency
/// without the host's one-off stalls; pooled over passes instead, the
/// p999 reads whichever chunks the host stalled.  `cells` holds
/// kPassCells latencies per pass, in pass order.
double cell_p999_us(const std::vector<std::int64_t>& cells,
                    const std::vector<std::size_t>& passes) {
  std::vector<double> medians(kPassCells);
  std::vector<double> samples(passes.size());
  for (std::size_t c = 0; c < kPassCells; ++c) {
    for (std::size_t k = 0; k < passes.size(); ++k) {
      samples[k] = static_cast<double>(cells[passes[k] * kPassCells + c]);
    }
    medians[c] = median(samples);
  }
  return percentile(std::move(medians), 0.999) / 1e3;
}

std::vector<std::uint64_t> deauth_counts() {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::HistogramSample* h =
      snap.find_histogram("perfbench_campus_deauth_seconds");
  return h == nullptr ? std::vector<std::uint64_t>{} : h->counts;
}

}  // namespace

Result run_campus_fleet(const Args& args) {
  exec::ThreadPool pool(kThreads);
  const CampusInput in = make_input(args.seed, pool);

  std::vector<double> bounds;
  for (std::size_t k = 0; k < kDeauthBuckets; ++k) {
    bounds.push_back(kDeauthBucket * (static_cast<double>(k) + 0.5));
  }
  fleet::ShardMetrics metrics;
  metrics.deauth_latency = obs::registry().histogram(
      "perfbench_campus_deauth_seconds",
      "campus shard deauthentication latency", bounds);

  std::vector<std::size_t> all(kOffices);
  for (std::size_t i = 0; i < kOffices; ++i) all[i] = i;
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < kOffices;
       i += args.trace ? 1 : kReferenceStride) {
    subset.push_back(i);
  }

  std::vector<Pass> passes(kMaxPasses);
  std::vector<PassLedger> ledgers(kMaxPasses);
  std::vector<std::int64_t> cells(kMaxPasses * kPassCells, 0);
  std::vector<std::uint8_t> bytes(std::size_t{4} << 20, 0);  // pre-touch
  bytes.clear();
  BusyClock clock;
  HeapPeak heap;

  std::unique_ptr<Campus> campus;
  std::unique_ptr<Campus> reference = std::make_unique<Campus>(
      true, subset, args.seed, pool, fleet::ShardMetrics{});
  std::vector<std::uint64_t> reference_seq(kOffices, 0);
  std::vector<std::uint8_t> reference_bytes;
  const auto step_reference = [&](Tick from, Tick count) {
    // The same stream re-encoded with the reference's own sequence
    // numbers (content-identical bytes), replayed serially on one lane.
    encode_chunk(in, from, count, reference_seq, reference_bytes);
    run_chunk(*reference, reference_bytes, pool, clock, nullptr, false);
  };

  // Set-up: build a campus and step it through the training span.  The
  // measured campus is the first; the rest are throwaway repeats spread
  // over the run, so the reported set-up time samples the host across it.
  const auto set_up = [&](const fleet::ShardMetrics& shard_metrics,
                          Campus* lockstep) {
    std::vector<std::uint64_t> seq(kOffices, 0);
    const std::int64_t start = clock.now();
    auto built = std::make_unique<Campus>(false, all, args.seed, pool,
                                          shard_metrics);
    for (Tick from = 0; from < kSetupTicks; from += kChunkTicks) {
      const Tick count = std::min(kChunkTicks, kSetupTicks - from);
      clock.pause();
      encode_chunk(in, from, count, seq, bytes);
      clock.resume();
      run_chunk(*built, bytes, pool, clock, nullptr, false);
      clock.pause();
      heap.sample();
      if (lockstep != nullptr) step_reference(from, count);
      clock.resume();
    }
    const double seconds = static_cast<double>(clock.now() - start) / 1e9;
    built->seq = std::move(seq);
    return std::make_pair(std::move(built), seconds);
  };
  heap.reset();
  std::vector<double> setups;
  {
    auto [built, seconds] = set_up(metrics, reference.get());
    campus = std::move(built);
    setups.push_back(seconds);
  }
  std::size_t online = 0;
  for (const auto& shard : campus->shards) online += shard->training() ? 0 : 1;
  const std::vector<std::uint64_t> deauths_before = deauth_counts();
  std::uint64_t deauths_total_before = 0;
  for (const auto& shard : campus->shards) {
    deauths_total_before += shard->deauths();
  }

  const std::int64_t run_start = wall_ns();
  const auto elapsed_share = [&] {
    return static_cast<double>(wall_ns() - run_start) / (args.seconds * 1e9);
  };
  std::size_t used = 0;
  while (used < kMaxPasses) {
    Pass& pass = passes[used];
    PassLedger& ledger = ledgers[used];
    ledger.traced = args.trace && used % 2 == 0;
    const Tick base = kSetupTicks + static_cast<Tick>(used) * kPassTicks;
    const std::int64_t start = clock.now();
    for (std::size_t chunk = 0; chunk < kPassChunks; ++chunk) {
      const Tick from = base + static_cast<Tick>(chunk) * kChunkTicks;
      clock.pause();
      encode_chunk(in, from, kChunkTicks, campus->seq, bytes);
      clock.resume();
      ledger.add(run_chunk(*campus, bytes, pool, clock, &pass, ledger.traced));
      clock.pause();
      std::copy(campus->latency_ns.begin(), campus->latency_ns.end(),
                cells.begin() + static_cast<std::ptrdiff_t>(
                                    used * kPassCells + chunk * kOffices));
      heap.sample();
      step_reference(from, kChunkTicks);
      clock.resume();
    }
    pass.busy_ns = clock.now() - start;
    ++used;
    // Memory covers a fixed amount of work (the set-up and the first
    // passes), before any spare set-up runs.
    if (used == kMinPasses) heap.stop();
    if (used >= kMinPasses && setups.size() < kSetups &&
        elapsed_share() >= static_cast<double>(setups.size()) / kSetups) {
      setups.push_back(set_up(fleet::ShardMetrics{}, nullptr).second);
    }
    if (used >= kMinPasses && setups.size() == kSetups &&
        elapsed_share() >= 1.0) {
      break;
    }
  }

  // End of stream: flush each office's held row and step through it.
  const Tick end = kSetupTicks + static_cast<Tick>(used) * kPassTicks;
  for (Campus* c : {campus.get(), reference.get()}) {
    c->bridge.finish();
    for (const auto& shard : c->shards) shard->run_until(end);
  }

  Checks checks;
  std::uint64_t deauths = 0;
  std::uint64_t gap_rows = 0;
  bool all_at_end = true;
  for (std::size_t i = 0; i < campus->shards.size(); ++i) {
    const fleet::OfficeShard& shard = *campus->shards[i];
    checks.expect(!shard.faulted(), "campus: shard " +
                                        std::to_string(i) + " faulted: " +
                                        shard.fault_what());
    all_at_end = all_at_end && shard.tick() == end;
    deauths += shard.deauths();
    gap_rows += campus->bridge.gap_rows(i);
  }
  checks.expect(all_at_end, "campus: every office stepped every tick");
  checks.expect(gap_rows == 0, "campus: the bridge gap-filled no row");
  const net::PlaneCounters& plane = campus->plane.counters();
  checks.expect(plane.wire.rejected_frames() == 0 &&
                    plane.wire.resync_bytes == 0,
                "campus: the plane decoded every frame");
  checks.expect(plane.reports_delivered ==
                    static_cast<std::uint64_t>(end) * kOffices * kStreams,
                "campus: every report reached the bridge");
  std::size_t mismatched = 0;
  for (std::size_t r = 0; r < reference->shards.size(); ++r) {
    const std::size_t office = reference->stepped[r];
    if (reference->shards[r]->digest() != campus->shards[office]->digest()) {
      ++mismatched;
    }
  }
  checks.expect(mismatched == 0,
                "campus: shard digests equal the serial single-lane plane's");
  checks.expect(deauths - deauths_total_before > 0,
                "campus: the measured passes logged deauthentications");

  std::vector<Pass> timed;
  std::vector<std::size_t> timed_index;
  std::vector<Pass> traced;
  std::vector<const PassLedger*> traced_ledgers;
  for (std::size_t i = 0; i < used; ++i) {
    if (ledgers[i].traced) {
      traced.push_back(std::move(passes[i]));
      traced_ledgers.push_back(&ledgers[i]);
    } else {
      timed.push_back(std::move(passes[i]));
      timed_index.push_back(i);
    }
  }

  Result result;
  result.correct = checks.all_passed();
  result.attempted = used * static_cast<std::uint64_t>(kPassTicks) * kOffices;
  result.failed = result.correct ? 0 : result.attempted;
  const PassSummary e2e = summarize(timed, select_passes(timed, kPassEnd));
  result.metrics = {
      {"ticks_per_s", e2e.units_per_s, "1/s"},
      {"latency_p50_us", e2e.p50_us, "us"},
      {"latency_p999_us", cell_p999_us(cells, timed_index), "us"},
      {"setup_s", median(setups), "s"},
      {"peak_heap_mb", heap.peak_mb(), "MB"},
  };
  result.diagnostics = {
      {"run.pass_spread", pass_spread(timed), "ratio"},
      {"run.passes", static_cast<double>(used), "count"},
      {"run.setup_min_s", *std::min_element(setups.begin(), setups.end()),
       "s"},
      {"fleet.offices_online", static_cast<double>(online), "count"},
      {"core.deauths", static_cast<double>(deauths - deauths_total_before),
       "count"},
  };

  if (args.trace) {
    const std::vector<std::size_t> selected = select_passes(traced, kPassEnd);
    PassLedger s;
    std::int64_t busy = 0;
    for (const std::size_t k : selected) {
      const PassLedger& l = *traced_ledgers[k];
      s.plane_ns += l.plane_ns;
      s.step_ns += l.step_ns;
      s.trim_ns += l.trim_ns;
      s.bridge_ns += l.bridge_ns;
      s.busy_ns += l.busy_ns;
      s.reports += l.reports;
      s.office_ticks += l.office_ticks;
      s.skews.insert(s.skews.end(), l.skews.begin(), l.skews.end());
      busy += traced[k].busy_ns;
    }
    const auto per = [](std::int64_t ns, std::uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
    };
    const double unattributed =
        busy == 0 ? 0.0
                  : 1.0 - static_cast<double>(s.plane_ns + s.step_ns +
                                              s.trim_ns) /
                              static_cast<double>(busy);
    checks.expect(std::abs(unattributed) <= 0.10,
                  "ledger: stage self-times sum to within 10% of the "
                  "traced total");
    result.correct = checks.all_passed();
    std::vector<std::uint64_t> counts = deauth_counts();
    for (std::size_t k = 0; k < counts.size() && k < deauths_before.size();
         ++k) {
      counts[k] -= deauths_before[k];
    }
    const PassSummary traced_e2e = summarize(traced, selected);
    result.layer_metrics = {
        {"net.decode.ns_per_frame", 0.0, "ns"},
        {"defend.ns_per_frame", 0.0, "ns"},
        {"defend.frame_accept_ratio", 0.0, "ratio"},
        {"net.station.ns_per_report", 0.0, "ns"},
        {"net.station.incomplete_rows", 0.0, "count"},
        {"net.station.late_reports", 0.0, "count"},
        {"core.step.ns_per_tick", 0.0, "ns"},
        {"core.classify.us_p50", 0.0, "us"},
        {"core.classifications", 0.0, "count"},
        {"core.deauth_delay_p50_s", deauth_percentile(counts, 0.5), "s"},
        {"core.deauth_delay_p90_s", deauth_percentile(counts, 0.9), "s"},
        {"core.deauths", static_cast<double>(deauths - deauths_total_before),
         "count"},
        {"net.plane.ns_per_report", per(s.plane_ns, s.reports), "ns"},
        {"net.plane.backpressure",
         static_cast<double>(plane.ring_full_backpressure), "count"},
        {"fleet.bridge.ns_per_report", per(s.bridge_ns, s.reports), "ns"},
        {"fleet.step.ns_per_office_tick", per(s.busy_ns, s.office_ticks),
         "ns"},
        {"exec.parallel_efficiency",
         s.step_ns == 0 ? 0.0
                        : static_cast<double>(s.busy_ns) /
                              (static_cast<double>(kConcurrency) *
                               static_cast<double>(s.step_ns)),
         "ratio"},
        {"exec.block_skew", median(s.skews), "ratio"},
        {"ledger.unattributed_share", unattributed, "ratio"},
        {"trace.overhead_share",
         e2e.units_per_s > 0.0 && traced_e2e.units_per_s > 0.0
             ? e2e.units_per_s / traced_e2e.units_per_s - 1.0
             : 0.0,
         "ratio"},
        {"run.pass_spread", pass_spread(timed), "ratio"},
    };
  }
  return result;
}

}  // namespace perfbench
