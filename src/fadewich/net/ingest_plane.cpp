#include "fadewich/net/ingest_plane.hpp"

#include <algorithm>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::net {

namespace {

// A round that neither decodes a byte nor delivers a report is stagnant;
// this many in a row means the frontier/carry invariants were broken by
// a caller bug (a misrouting router, a sink that rethrows into a lane).
constexpr std::uint64_t kStagnantRoundLimit = 1000;

// Total measurement-slot memory across all rings when ring_capacity is 0.
constexpr std::size_t kRingBudgetBytes = 32ull << 20;
constexpr std::size_t kMinRingCapacity = 256;
// 4096 slots = 64 KiB of Measurement per ring: deep enough to amortise
// the producer/consumer handoff, small enough that a round's ring
// traffic stays cache-resident — 65536-slot rings measured ~15% slower
// end-to-end because every fill/drain cycle streamed through L2.
constexpr std::size_t kMaxRingCapacity = 4096;

}  // namespace

/// One decoder worker's persistent state across rounds.  `scratch`
/// stages one frame's measurements for the ring push; when the ring
/// fills mid-frame the un-pushed suffix stays in `scratch` as the carry
/// ([carry_offset, carry_offset + carry_count) targeting carry_shard)
/// and the lane resumes there next round, so per-shard order survives
/// backpressure.
struct IngestPlane::LaneState {
  std::size_t index = 0;
  std::size_t pos = 0;
  std::size_t end = 0;
  std::vector<Measurement> scratch;
  std::size_t carry_shard = 0;
  std::size_t carry_offset = 0;
  std::size_t carry_count = 0;
  WireCounters wire;
  std::vector<PlaneShardCounters> per_shard;
  std::atomic<bool> done{false};
};

struct IngestPlane::ShardState {
  std::size_t index = 0;
  std::size_t frontier = 0;  // lane currently being consumed
  bool complete = false;
  std::uint64_t reports = 0;
};

obs::HealthBlock health_block(const PlaneCounters& counters) {
  obs::HealthBlock block = health_block(counters.wire);
  block.name = "ingest_plane";
  block.add("rounds", static_cast<double>(counters.rounds));
  block.add("reports_delivered",
            static_cast<double>(counters.reports_delivered));
  block.add("ring_full_backpressure",
            static_cast<double>(counters.ring_full_backpressure));
  if (counters.per_shard.size() > obs::kPerUnitHealthCap) return block;
  for (std::size_t s = 0; s < counters.per_shard.size(); ++s) {
    const PlaneShardCounters& c = counters.per_shard[s];
    const std::string shard = "shard_" + std::to_string(s);
    block.add(shard + "_frames_decoded",
              static_cast<double>(c.frames_decoded));
    block.add(shard + "_crc_rejected", static_cast<double>(c.crc_rejected));
    block.add(shard + "_ring_full_backpressure",
              static_cast<double>(c.ring_full_backpressure));
    block.add(shard + "_reports_delivered",
              static_cast<double>(c.reports_delivered));
  }
  return block;
}

IngestPlane::~IngestPlane() = default;

IngestPlane::IngestPlane(PlaneConfig config, exec::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::global()) {
  // Plane configs come from env knobs and CLI flags at runtime, so
  // invalid values throw fadewich::Error rather than tripping contracts.
  if (config_.lanes < 1) throw Error("ingest plane: lanes must be >= 1");
  if (config_.shards < 1) throw Error("ingest plane: shards must be >= 1");
  if (config_.drain_batch < 1) {
    throw Error("ingest plane: drain_batch must be >= 1");
  }
  if (config_.ring_capacity > 0) {
    ring_capacity_ = config_.ring_capacity;
  } else {
    const std::size_t per_ring =
        kRingBudgetBytes /
        (config_.lanes * config_.shards * sizeof(Measurement));
    ring_capacity_ = std::clamp(per_ring, kMinRingCapacity,
                                kMaxRingCapacity);
  }
  const std::size_t shards = config_.shards;
  router_ = [shards](std::uint16_t station_id) {
    return static_cast<std::size_t>(station_id) % shards;
  };
  rings_.reserve(config_.lanes * shards);
  for (std::size_t i = 0; i < config_.lanes * shards; ++i) {
    rings_.push_back(std::make_unique<IngestQueue>(ring_capacity_));
  }
  lanes_.reserve(config_.lanes);
  for (std::size_t l = 0; l < config_.lanes; ++l) {
    auto lane = std::make_unique<LaneState>();
    lane->index = l;
    lane->scratch.resize(kMaxFrameReports);
    lane->per_shard.resize(shards);
    lanes_.push_back(std::move(lane));
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<ShardState>();
    shard->index = s;
    shards_.push_back(std::move(shard));
  }
  counters_.per_shard.resize(shards);
  ring_depth_ = metrics_.histogram(
      "fadewich_ingest_ring_depth",
      "Measurements queued in a (lane, shard) ring at drain time");
}

void IngestPlane::set_router(Router router) {
  if (!router) throw Error("ingest plane: router must be callable");
  router_ = std::move(router);
}

void IngestPlane::plan_lanes(std::span<const std::uint8_t> bytes) {
  // Lane l owns [boundary[l], boundary[l+1]).  Lane 0 starts at byte 0
  // (leading garbage is its resync job, as in the single-lane walk);
  // every later boundary is the first validated frame start at or after
  // the even split, so no frame straddles an ownership edge.  Boundaries
  // are non-decreasing because a hunt from a later origin can't find an
  // earlier frame; an empty lane range is legal and just finishes first.
  std::vector<std::size_t> bounds(config_.lanes + 1, 0);
  bounds[config_.lanes] = bytes.size();
  for (std::size_t l = 1; l < config_.lanes; ++l) {
    const std::size_t nominal = bytes.size() * l / config_.lanes;
    bounds[l] = std::max(bounds[l - 1],
                         find_frame_boundary(bytes, nominal));
  }
  for (std::size_t l = 0; l < config_.lanes; ++l) {
    LaneState& lane = *lanes_[l];
    lane.pos = bounds[l];
    lane.end = std::max(bounds[l + 1], bounds[l]);
    lane.carry_count = 0;
    lane.carry_offset = 0;
    lane.done.store(false, std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_[s]->frontier = 0;
    shards_[s]->complete = false;
  }
}

void IngestPlane::decode_round(LaneState& lane,
                               std::span<const std::uint8_t> bytes) {
  if (lane.done.load(std::memory_order_relaxed)) return;
  // Per-round push quota: enough to fill this lane's rings from empty,
  // so a lane can't monopolise a round but high shard counts don't
  // collapse into thousands of near-empty rounds.  Capped so a huge
  // lanes x shards product still yields the round barrier regularly.
  std::size_t quota = std::min<std::size_t>(
      ring_capacity_ * config_.shards, std::size_t{1} << 20);
  if (lane.carry_count > 0) {
    IngestQueue& carry_ring = ring(lane.index, lane.carry_shard);
    const std::size_t n = carry_ring.push_some(
        {lane.scratch.data() + lane.carry_offset, lane.carry_count});
    lane.carry_offset += n;
    lane.carry_count -= n;
    quota = n >= quota ? 0 : quota - n;
    if (lane.carry_count > 0) {
      ++lane.per_shard[lane.carry_shard].ring_full_backpressure;
      return;  // still blocked; the shard drains it next round
    }
  }
  const std::span<const std::uint8_t> owned = bytes.first(lane.end);
  FrameView view;
  while (quota > 0 && lane.pos < lane.end) {
    switch (scan_frame(owned, lane.pos, view, lane.wire)) {
      case ScanOutcome::kFrame: {
        const std::size_t shard = router_(view.header.station_id);
        if (shard >= config_.shards) {
          throw Error("ingest plane: router returned shard out of range");
        }
        ++lane.per_shard[shard].frames_decoded;
        lane.pos += view.size;
        IngestQueue& dst = ring(lane.index, shard);
        // Fast path: decode straight into ring slots — no scratch
        // staging, one Measurement write per report.  Falls back to
        // scratch + carry when the contiguous free run can't take the
        // whole frame (wrap or backpressure).
        const std::span<Measurement> direct = dst.back_span(view.count);
        if (direct.size() == view.count) {
          for (std::uint16_t i = 0; i < view.count; ++i) {
            const WireReport r = view.report(i);
            direct[i] = {view.header.tx, r.rx, view.header.tick,
                         static_cast<double>(r.rssi_dbm)};
          }
          dst.publish(view.count);
          quota = view.count >= quota ? 0 : quota - view.count;
          break;
        }
        for (std::uint16_t i = 0; i < view.count; ++i) {
          const WireReport r = view.report(i);
          lane.scratch[i] = {view.header.tx, r.rx, view.header.tick,
                             static_cast<double>(r.rssi_dbm)};
        }
        const std::size_t n =
            dst.push_some({lane.scratch.data(), view.count});
        if (n < view.count) {
          lane.carry_shard = shard;
          lane.carry_offset = n;
          lane.carry_count = view.count - n;
          ++lane.per_shard[shard].ring_full_backpressure;
          return;
        }
        quota = n >= quota ? 0 : quota - n;
        break;
      }
      case ScanOutcome::kNeedMore:
        // End of this lane's range: account the tail and finish.
        lane.pos = finish_scan(owned, lane.pos, lane.wire);
        break;
      case ScanOutcome::kBadCrc:
        // Best-effort attribution from the untrusted header — bounded by
        // the router contract, never acted on beyond this counter.
        if (const std::size_t shard = router_(view.header.station_id);
            shard < config_.shards) {
          ++lane.per_shard[shard].crc_rejected;
        }
        ++lane.pos;
        break;
      default:  // kResync / kBadVersion / kBadLength
        ++lane.pos;
        break;
    }
  }
  if (lane.pos >= lane.end && lane.carry_count == 0) {
    // Release-fences every ring push: a consumer that acquires `done`
    // and then sees an empty ring has seen everything this lane made.
    lane.done.store(true, std::memory_order_release);
  }
}

void IngestPlane::drain_round(ShardState& shard, const Sink& sink) {
  if (shard.complete) return;
  // Per-round budget: a few ring-fuls, so one flooded shard can't stall
  // the round barrier for everyone else.
  std::size_t budget = 4 * ring_capacity_;
  while (true) {
    if (shard.frontier >= config_.lanes) {
      shard.complete = true;
      return;
    }
    LaneState& lane = *lanes_[shard.frontier];
    IngestQueue& front = ring(shard.frontier, shard.index);
    ring_depth_.observe(static_cast<double>(front.size()));
    // Zero-copy drain: hand the sink ring storage directly and retire it
    // after the call, instead of staging through a scratch buffer.  The
    // SPSC contract makes this safe — the producer never touches slots
    // between front_span() and consume().  A wrapped backlog shows up as
    // two successive spans across loop iterations.
    const std::size_t want = std::min(config_.drain_batch, budget);
    const std::span<const Measurement> run =
        want > 0 ? front.front_span(want)
                 : std::span<const Measurement>{};
    if (!run.empty()) {
      sink(shard.index, run);
      front.consume(run.size());
      shard.reports += run.size();
      budget -= run.size();
      if (budget == 0) return;
      continue;
    }
    if (!lane.done.load(std::memory_order_acquire)) return;
    if (front.size() != 0) continue;  // pushes published with `done`
    // The frontier lane is finished and its ring is drained: everything
    // it decoded for this shard has been delivered, in wire order.
    ++shard.frontier;
  }
}

std::uint64_t IngestPlane::progress_mark() const {
  std::uint64_t mark = 0;
  for (const auto& lane : lanes_) {
    mark += lane->pos + lane->carry_count +
            (lane->done.load(std::memory_order_relaxed) ? 1 : 0);
  }
  for (const auto& shard : shards_) {
    mark += shard->reports + shard->frontier;
  }
  return mark;
}

void IngestPlane::merge_lane_counters() {
  for (const auto& lane : lanes_) {
    WireCounters& w = counters_.wire;
    w.frames_ok += lane->wire.frames_ok;
    w.reports += lane->wire.reports;
    w.bad_version += lane->wire.bad_version;
    w.bad_length += lane->wire.bad_length;
    w.bad_crc += lane->wire.bad_crc;
    w.resync_bytes += lane->wire.resync_bytes;
    w.truncated += lane->wire.truncated;
    lane->wire = WireCounters{};
    for (std::size_t s = 0; s < config_.shards; ++s) {
      PlaneShardCounters& dst = counters_.per_shard[s];
      const PlaneShardCounters& src = lane->per_shard[s];
      dst.frames_decoded += src.frames_decoded;
      dst.crc_rejected += src.crc_rejected;
      dst.ring_full_backpressure += src.ring_full_backpressure;
      counters_.ring_full_backpressure += src.ring_full_backpressure;
      lane->per_shard[s] = PlaneShardCounters{};
    }
  }
  for (const auto& shard : shards_) {
    counters_.per_shard[shard->index].reports_delivered += shard->reports;
  }
}

std::uint64_t IngestPlane::replay(std::span<const std::uint8_t> bytes,
                                  const Sink& sink) {
  plan_lanes(bytes);
  const std::size_t tasks = config_.lanes + config_.shards;
  const auto run_task = [&](std::size_t t) {
    if (t < config_.lanes) {
      decode_round(*lanes_[t], bytes);
    } else {
      drain_round(*shards_[t - config_.lanes], sink);
    }
  };
  std::uint64_t last_mark = progress_mark();
  std::uint64_t stagnant = 0;
  while (true) {
    ++counters_.rounds;
    if (config_.serial) {
      for (std::size_t t = 0; t < tasks; ++t) run_task(t);
    } else {
      pool_->parallel_for(0, tasks, run_task, 1);
    }
    bool all_complete = true;
    for (const auto& shard : shards_) {
      all_complete = all_complete && shard->complete;
    }
    if (all_complete) break;
    const std::uint64_t mark = progress_mark();
    stagnant = mark == last_mark ? stagnant + 1 : 0;
    last_mark = mark;
    if (stagnant > kStagnantRoundLimit) {
      throw Error("ingest plane: no progress — frontier stalled");
    }
  }
  std::uint64_t delivered = 0;
  for (auto& shard : shards_) {
    delivered += shard->reports;
  }
  merge_lane_counters();
  counters_.reports_delivered += delivered;
  for (auto& shard : shards_) shard->reports = 0;
  return delivered;
}

}  // namespace fadewich::net
