// Line-rate ingestion trajectory: replay a recorded week through the
// binary wire front door and prove the transport is lossless: the
// released rows (values and validity masks) must be bit-identical to
// the in-process path over the same recording.
//
//   ./bench_ingest [output.json]
//
// Legs, all recorded in BENCH_ingest.json:
//   in_process          the in-process reference path: each tick's
//                       reports appended to a reused vector and
//                       ingested as one batch (ratio baseline)
//   wire_single_thread  decode -> ring -> station ingest/take_row on
//                       one thread, with
//                       queue-depth percentiles via an obs histogram.
//                       This leg is the "single lane" the plane sweep
//                       is gated against.
//   plane_sweep         the sharded ingest plane: N decoder lanes fan
//                       decoded reports through per-shard rings into
//                       one CentralStation per shard (RowSink path), swept
//                       over lanes x shard counts.  Every cell must be
//                       bit-identical to the in-process reference.
//   corrupt             the same frames with injected bit flips and a
//                       torn tail: every rejection must land in a
//                       WireCounters bucket, never a throw
//
// Exits nonzero when any wire leg is not bit-identical to the reference,
// so CI fails on transport loss rather than archiving a bad report.
//
// Environment (all strict — a malformed value throws, never silently
// falls back): FADEWICH_BENCH_FAST=1 shrinks the week to 2 days x 2 h;
// FADEWICH_INGEST_RING / FADEWICH_INGEST_BATCH size the single-thread
// ring and the station drain batch (defaults 65536 / 1024);
// FADEWICH_INGEST_LANES and FADEWICH_INGEST_SHARDS override the sweep
// axes as comma-separated lists (defaults "1,2,4" x "10,100,1000").
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fadewich/common/env.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/net/capture.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/net/ingest_queue.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::bench {
namespace {

using net::Measurement;

constexpr std::size_t kDevices = 9;  // the paper's office deployment
constexpr std::size_t kReportsPerFrame = kDevices - 1;
constexpr std::size_t kFrameBytes = net::wire_frame_size(kReportsPerFrame);
constexpr std::size_t kFeedChunk = 64 * 1024;  // decoder feed granularity

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A week of synthetic RSSI: per-stream bounded random walks.  The bench
/// measures transport, not physics — what matters is that every tick of
/// every stream carries a distinct, reproducible value.
sim::Recording make_week() {
  const bool fast = fast_mode();
  const double day_hours = fast ? 2.0 : 8.0;
  const std::size_t days = fast ? 2 : 5;
  sim::Recording recording(5.0, kDevices, day_hours * 3600.0, days);
  const auto ticks = static_cast<Tick>(
      static_cast<double>(days) * day_hours * 3600.0 * 5.0);
  Rng rng(20170605);  // ICDCS'17
  std::vector<double> row(recording.stream_count(), -55.0);
  for (Tick t = 0; t < ticks; ++t) {
    for (auto& v : row) {
      v = std::clamp(v + rng.normal(0.0, 0.8), -90.0, -30.0);
    }
    recording.append_samples(row);
  }
  return recording;
}

/// Row digest: tick + values + validity mask folded through an
/// order-sensitive 64-bit multiply-mix (splitmix64 step per word).  Two
/// row streams are bit-identical iff their digests match.  One mix per
/// 8-byte word keeps the digest to ~1 ns/report inside the timed replay
/// loops, so the legs measure ingestion rather than checksumming.
struct RowDigest {
  std::uint64_t state = 0x243F6A8885A308D3ull;

  void mix(std::uint64_t word) {
    state ^= word + 0x9E3779B97F4A7C15ull;
    state *= 0xBF58476D1CE4E5B9ull;
    state ^= state >> 27;
  }

  std::uint64_t value() const {
    std::uint64_t v = state;
    v *= 0x94D049BB133111EBull;
    v ^= v >> 31;
    return v;
  }
};

void digest_row(RowDigest& digest, const net::StationRow& row) {
  digest.mix(static_cast<std::uint64_t>(row.tick));
  for (const double v : row.values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    digest.mix(bits);
  }
  std::uint64_t packed = 0;
  std::size_t filled = 0;
  for (const auto flag : row.valid) {
    packed = (packed << 1) | (flag ? 1u : 0u);
    if (++filled == 64) {
      digest.mix(packed);
      packed = 0;
      filled = 0;
    }
  }
  if (filled > 0) digest.mix(packed);
}

struct ReferenceResult {
  double seconds = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t reports = 0;
  std::uint64_t digest = 0;  // whole-stream digest
};

/// The in-process reference path over the first `ticks` ticks of the
/// recording: append every measurement to a reused batch, ingest per
/// tick, digest the released rows.
ReferenceResult run_in_process(const sim::Recording& recording,
                               Tick ticks) {
  net::CentralStation station(kDevices);
  std::vector<Measurement> batch;
  RowDigest whole;
  ReferenceResult result;
  const auto start = std::chrono::steady_clock::now();
  for (Tick t = 0; t < ticks; ++t) {
    for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
      for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
        if (tx == rx) continue;
        batch.push_back({tx, rx, t,
                         recording.rssi(recording.stream_index(tx, rx), t)});
        ++result.reports;
      }
    }
    const std::vector<Tick> released = station.ingest(batch);
    batch.clear();
    for (const Tick ready : released) {
      const auto row = station.take_row(ready);
      digest_row(whole, *row);
      ++result.rows;
    }
  }
  result.seconds = seconds_since(start);
  result.digest = whole.value();
  return result;
}

/// Write the whole recording as a capture file: one frame per (tick, tx)
/// carrying that transmitter's m-1 receiver reports, in tick-major order
/// so the byte offset of tick t is t * kDevices * kFrameBytes.
std::uint64_t write_capture(const sim::Recording& recording,
                            const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw Error("cannot open capture for writing: " + path);
  net::CaptureWriter writer(os, recording.rate().hz(), kDevices);
  std::uint64_t seq = 0;
  std::vector<net::WireReport> reports;
  const Tick ticks = recording.tick_count();
  for (Tick t = 0; t < ticks; ++t) {
    for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
      reports.clear();
      for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
        if (rx == tx) continue;
        const auto s = recording.stream_index(tx, rx);
        reports.push_back(
            {rx, recording.stream(s)[static_cast<std::size_t>(t)]});
      }
      writer.append({0, seq++, t, tx}, reports);
    }
  }
  return writer.frames_written();
}

/// A campus capture for the plane sweep: `offices` stations all replay
/// the first `ticks` ticks of the recording, frames interleaved
/// tick-major then station-major — the merged wire order a campus tap
/// would see.  Every office carries identical values, so one in-process
/// reference digest verifies all of them.
std::vector<std::uint8_t> make_campus_capture(
    const sim::Recording& recording, std::size_t offices, Tick ticks) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(ticks) * offices * kDevices *
                kFrameBytes);
  std::vector<net::WireReport> reports;
  std::vector<std::uint64_t> seq(offices, 0);
  for (Tick t = 0; t < ticks; ++t) {
    for (std::size_t office = 0; office < offices; ++office) {
      for (net::DeviceId tx = 0; tx < kDevices; ++tx) {
        reports.clear();
        for (net::DeviceId rx = 0; rx < kDevices; ++rx) {
          if (rx == tx) continue;
          const auto s = recording.stream_index(tx, rx);
          reports.push_back({rx, net::wire_encode_dbm(recording.rssi(
                                     s, static_cast<std::size_t>(t)))});
        }
        const net::FrameHeader header{
            static_cast<std::uint16_t>(office), seq[office]++, t, tx};
        encode_frame(header, reports, bytes);
      }
    }
  }
  return bytes;
}

struct WireRun {
  double seconds = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t digest = 0;
  net::WireCounters decode;
  std::uint64_t backpressure_rejects = 0;  // pushes the full ring refused
};

/// The single-lane baseline: decode a span of capture frames, push
/// through the SPSC ring, drain in batches into the station's
/// ingest/take_row form, digest released rows.  This is the pre-plane hot route the
/// sweep's speedup is measured against.  `depth` (a null handle unless
/// the caller registered one) samples ring occupancy before each drain.
WireRun run_wire(std::span<const std::uint8_t> frames,
                 std::size_t ring_capacity, std::size_t batch_size,
                 obs::Histogram depth) {
  net::FrameDecoder decoder;
  net::IngestQueue queue(ring_capacity);
  net::CentralStation station(kDevices);
  RowDigest digest;
  WireRun run;
  std::vector<Measurement> staged;
  std::vector<Measurement> batch(batch_size);

  const auto drain = [&]() {
    depth.observe(static_cast<double>(queue.size()));
    const std::size_t n = queue.pop_batch(batch);
    if (n == 0) return false;
    const std::span<const Measurement> drained(batch.data(), n);
    for (const Tick ready : station.ingest(drained)) {
      const auto row = station.take_row(ready);
      digest_row(digest, *row);
      ++run.rows;
    }
    return true;
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t offset = 0; offset < frames.size();
       offset += kFeedChunk) {
    const std::size_t len = std::min(kFeedChunk, frames.size() - offset);
    decoder.feed(frames.subspan(offset, len));
    while (const net::DecodedFrame* frame = decoder.next()) {
      staged.clear();
      net::to_measurements(*frame, staged);
      std::span<const Measurement> rest(staged);
      while (!rest.empty()) {
        const std::size_t pushed = queue.push_some(rest);
        run.backpressure_rejects += rest.size() - pushed;
        rest = rest.subspan(pushed);
        // A full ring is backpressure: the producer yields to the
        // consumer (here: the same thread draining a batch).
        if (!rest.empty()) drain();
      }
      if (queue.size() >= batch_size) drain();
    }
  }
  decoder.finish();
  while (drain()) {
  }
  run.seconds = seconds_since(start);
  run.digest = digest.value();
  run.decode = decoder.counters();
  return run;
}

struct PlaneRun {
  std::size_t lanes = 0;
  std::size_t shards = 0;
  double seconds = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t reports = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t rounds = 0;
  bool bit_identical = false;
};

/// One plane sweep cell: replay the campus capture through an
/// IngestPlane with `lanes` decoder lanes into `shards` stations,
/// digesting each shard's row stream.  Bit-identity gate:
/// every shard's digest equals the in-process reference digest over the
/// same tick range (all offices replay identical values).
PlaneRun run_plane(std::span<const std::uint8_t> bytes, std::size_t lanes,
                   std::size_t shards, std::size_t drain_batch,
                   const ReferenceResult& reference) {
  net::PlaneConfig config;
  config.lanes = lanes;
  config.shards = shards;
  config.drain_batch = drain_batch;
  // Rings share the default memory budget: capacity adapts to the
  // lanes x shards grid instead of multiplying a fixed size by it.
  net::IngestPlane plane(config);

  std::vector<net::CentralStation> stations;
  stations.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) stations.emplace_back(kDevices);
  std::vector<RowDigest> digests(shards);
  std::vector<std::uint64_t> rows(shards, 0);

  PlaneRun run;
  run.lanes = lanes;
  run.shards = shards;
  const auto start = std::chrono::steady_clock::now();
  run.reports = plane.replay(
      bytes, [&](std::size_t shard, std::span<const Measurement> batch) {
        stations[shard].ingest(
            batch, [&digests, &rows, shard](const net::StationRow& row) {
              digest_row(digests[shard], row);
              ++rows[shard];
            });
      });
  run.seconds = seconds_since(start);

  run.bit_identical = true;
  for (std::size_t s = 0; s < shards; ++s) {
    run.rows += rows[s];
    if (digests[s].value() != reference.digest ||
        rows[s] != reference.rows) {
      run.bit_identical = false;
      std::cerr << "[bench_ingest] plane " << lanes << "x" << shards
                << " shard " << s << " digest mismatch\n";
    }
  }
  run.backpressure = plane.counters().ring_full_backpressure;
  run.rounds = plane.counters().rounds;
  return run;
}

/// The corrupt-corpus leg: bit-flip every 251st byte of a frame slice and
/// tear its tail mid-frame, then decode.  Every anomaly must land in a
/// counter; a throw from the decoder fails the bench.
net::WireCounters run_corrupt(std::span<const std::uint8_t> frames) {
  std::vector<std::uint8_t> corpus(
      frames.begin(),
      frames.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              frames.size(), 4 * 1024 * 1024)));
  for (std::size_t i = 0; i < corpus.size(); i += 251) {
    corpus[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
  }
  if (corpus.size() > kFrameBytes / 2) {
    corpus.resize(corpus.size() - kFrameBytes / 2);  // torn tail
  }
  net::FrameDecoder decoder;
  net::IngestQueue queue(1024);
  net::CentralStation station(kDevices);
  std::vector<Measurement> staged;
  std::vector<Measurement> batch(1024);
  for (std::size_t offset = 0; offset < corpus.size();
       offset += kFeedChunk) {
    const std::size_t len = std::min(kFeedChunk, corpus.size() - offset);
    decoder.feed(std::span<const std::uint8_t>(corpus).subspan(offset, len));
    while (const net::DecodedFrame* frame = decoder.next()) {
      staged.clear();
      net::to_measurements(*frame, staged);
      std::span<const Measurement> rest(staged);
      while (!rest.empty()) {
        rest = rest.subspan(queue.push_some(rest));
        const std::size_t n = queue.pop_batch(batch);
        if (n != 0) {
          station.ingest(std::span<const Measurement>(batch.data(), n));
        }
      }
    }
  }
  decoder.finish();
  return decoder.counters();
}

int run(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_ingest.json");
  const std::size_t ring = common::env_count("FADEWICH_INGEST_RING", 65536);
  const std::size_t batch =
      common::env_count("FADEWICH_INGEST_BATCH", 1024);
  std::vector<std::size_t> lane_sweep =
      common::env_count_list("FADEWICH_INGEST_LANES", /*max_value=*/64);
  if (lane_sweep.empty()) lane_sweep = {1, 2, 4};
  std::vector<std::size_t> shard_sweep =
      common::env_count_list("FADEWICH_INGEST_SHARDS");
  if (shard_sweep.empty()) shard_sweep = {10, 100, 1000};

  std::cerr << "[bench_ingest] synthesising recording ("
            << (fast_mode() ? "fast" : "full") << " mode)\n";
  const sim::Recording recording = make_week();
  const Tick ticks = recording.tick_count();
  const std::uint64_t reports =
      static_cast<std::uint64_t>(ticks) * kDevices * kReportsPerFrame;

  std::cerr << "[bench_ingest] in-process reference pass (" << reports
            << " reports)\n";
  const ReferenceResult reference = run_in_process(recording, ticks);

  const std::string capture_path = "bench_ingest_capture.bin";
  std::cerr << "[bench_ingest] writing capture file\n";
  const std::uint64_t frames_written =
      write_capture(recording, capture_path);
  const net::Capture capture = net::load_capture(capture_path);
  std::cerr << "[bench_ingest] capture: " << frames_written << " frames, "
            << capture.frames.size() << " payload bytes\n";

  // Queue-depth distribution for the single-thread leg, bucketed on
  // powers of two up to the default ring size.
  std::vector<double> depth_bounds;
  for (double b = 1.0; b <= 65536.0; b *= 2.0) depth_bounds.push_back(b);
  obs::MetricsRegistry metrics;
  obs::Histogram depth = metrics.histogram(
      "fadewich_ingest_queue_depth", "ring occupancy sampled per drain",
      depth_bounds);

  std::cerr << "[bench_ingest] wire single-lane baseline pass\n";
  const WireRun single = run_wire(capture.frames, ring, batch, depth);
  const bool single_ok = single.digest == reference.digest &&
                         single.rows == reference.rows;

  const auto snapshot = metrics.snapshot();
  const auto* depth_sample =
      snapshot.find_histogram("fadewich_ingest_queue_depth");

  // Plane sweep: per shard count, a campus capture with that many
  // offices over a tick range scaled so every cell replays roughly the
  // same total report volume as the week.  One bounded in-process
  // reference per tick range verifies every office (offices replay
  // identical values).
  std::vector<PlaneRun> plane_runs;
  bool plane_ok = true;
  double plane_best_rate = 0.0;
  for (const std::size_t shards : shard_sweep) {
    const Tick sweep_ticks = std::max<Tick>(
        std::min<Tick>(ticks, 200),
        ticks / static_cast<Tick>(shards));
    const ReferenceResult bounded =
        sweep_ticks == ticks ? reference
                             : run_in_process(recording, sweep_ticks);
    std::cerr << "[bench_ingest] campus capture: " << shards
              << " offices x " << sweep_ticks << " ticks\n";
    const std::vector<std::uint8_t> campus =
        make_campus_capture(recording, shards, sweep_ticks);
    for (const std::size_t lanes : lane_sweep) {
      PlaneRun run = run_plane(campus, lanes, shards, batch, bounded);
      const double rate = ratio(static_cast<double>(run.reports), run.seconds);
      std::cerr << "[bench_ingest] plane lanes=" << lanes
                << " shards=" << shards << ": " << rate
                << " reports/sec, bit_identical="
                << (run.bit_identical ? "true" : "false") << "\n";
      plane_ok = plane_ok && run.bit_identical;
      plane_best_rate = std::max(plane_best_rate, rate);
      plane_runs.push_back(std::move(run));
    }
  }

  std::cerr << "[bench_ingest] corrupt-corpus pass\n";
  const net::WireCounters corrupt = run_corrupt(capture.frames);
  std::remove(capture_path.c_str());

  exec::ThreadPool& pool = exec::ThreadPool::global();
  JsonReport json(path, "fadewich-bench-ingest/2", pool.thread_count());
  json.begin_object("ingest")
      .field("devices", kDevices)
      .field("streams", kDevices * kReportsPerFrame)
      .field("ticks", ticks)
      .field("reports", reports)
      .field("frames", frames_written)
      .field("frame_bytes", kFrameBytes)
      .field("capture_bytes", capture.frames.size())
      .field("ring_capacity", ring)
      .field("batch_size", batch)
      .end();
  rate_fields(json.begin_object("in_process"), reference.seconds, reports);
  json.field("rows", reference.rows).end();

  rate_fields(json.begin_object("wire_single_thread"), single.seconds,
              reports);
  json.field("rows", single.rows)
      .field("frames_ok", single.decode.frames_ok)
      .field("rejected_frames", single.decode.rejected_frames())
      .field("backpressure_rejects", single.backpressure_rejects);
  if (depth_sample != nullptr) {
    json.field("queue_depth_p50", depth_sample->percentile(0.50))
        .field("queue_depth_p95", depth_sample->percentile(0.95))
        .field("queue_depth_p99", depth_sample->percentile(0.99));
  }
  json.field("bit_identical", single_ok).end();

  json.begin_array("plane_sweep");
  for (const PlaneRun& run : plane_runs) {
    json.begin_object().field("lanes", run.lanes).field("shards", run.shards);
    rate_fields(json, run.seconds, run.reports);
    json.field("rows", run.rows)
        .field("rounds", run.rounds)
        .field("ring_full_backpressure", run.backpressure)
        .field("bit_identical", run.bit_identical)
        .end();
  }
  json.end();

  json.begin_object("corrupt")
      .field("frames_offered", corrupt.frames_ok + corrupt.rejected_frames())
      .field("frames_ok", corrupt.frames_ok)
      .field("rejected_frames", corrupt.rejected_frames())
      .field("bad_crc", corrupt.bad_crc)
      .field("bad_length", corrupt.bad_length)
      .field("bad_version", corrupt.bad_version)
      .field("truncated", corrupt.truncated)
      .field("resync_bytes", corrupt.resync_bytes)
      .end();

  // Ratio block in the perf-gate's shape: "speedup" entries under a named
  // section gated by tools/check_perf_regression.py --section
  // ingest_ratios against bench/BENCH_ingest.baseline.json.  Each plane
  // cell gets its own lane-count-stamped row against the single-lane
  // baseline rate, so a regression in either decode fan-out or the
  // station's RowSink path moves a gated number.
  const double single_rate =
      ratio(static_cast<double>(reports), single.seconds);
  const auto speedup = [&](const std::string& name, double value) {
    json.begin_object(name).field("speedup", value).end();
  };
  json.begin_object("ingest_ratios");
  speedup("wire_vs_inprocess", ratio(reference.seconds, single.seconds));
  speedup("sharded_plane_vs_single_lane",
          ratio(plane_best_rate, single_rate));
  for (const PlaneRun& run : plane_runs) {
    speedup("plane_lanes" + std::to_string(run.lanes) + "_shards" +
                std::to_string(run.shards),
            ratio(ratio(static_cast<double>(run.reports), run.seconds),
                  single_rate));
  }
  json.end().close();

  std::cerr << "[bench_ingest] single-lane baseline: " << single_rate
            << " reports/sec, bit_identical="
            << (single_ok ? "true" : "false") << "\n";
  std::cerr << "[bench_ingest] best plane cell: " << plane_best_rate
            << " reports/sec (" << ratio(plane_best_rate, single_rate)
            << "x single-lane)\n";
  std::cerr << "[bench_ingest] wrote " << path << "\n";

  if (!single_ok || !plane_ok) {
    std::cerr << "[bench_ingest] FAIL: wire replay diverged from the "
                 "in-process reference\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fadewich::bench

int main(int argc, char** argv) {
  return fadewich::bench::run(argc, argv);
}
