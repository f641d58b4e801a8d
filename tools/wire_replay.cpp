// wire_replay: push a recorded capture file back through the ingestion
// plane, at line rate or paced against the capture's own tick clock.
//
//   wire_replay <capture> [--lanes N] [--shards S] [--batch N]
//               [--pace X | --max] [--json out.json]
//
// Modes:
//   --max (default)  replay as fast as the plane decodes: N lanes fan
//                    decoded reports through per-shard rings into one
//                    CentralStation per shard.
//   --pace X         single-lane streaming replay throttled to X times
//                    real time (X=1 reproduces the capture's own tick
//                    rate), for feeding downstream consumers that expect
//                    wall-clock arrival spacing.
//
// Environment (strict — a malformed value throws, never silently falls
// back): FADEWICH_INGEST_LANES seeds the default lane count (a single
// count here, not the bench's sweep list); FADEWICH_REPLAY_PACE selects
// paced mode with that multiplier when no mode flag is given.  CLI flags
// win over environment defaults.
//
// The replay prints (and with --json records) a row-stream digest — an
// order-sensitive 64-bit fold of every released row — so two runs over
// the same capture can be checked for bit-identity regardless of lane
// count, as long as each shard carries one station id.  With --shards
// below the office count, offices share a station and revise each
// other's cells; a revision that arrives after its row left counts late,
// so where the plane's batches split (which lanes change) moves rows.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fadewich/common/env.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/net/capture.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/net/wire.hpp"

namespace fadewich {
namespace {

using net::Measurement;

struct Options {
  std::string capture;
  std::size_t lanes = 1;
  std::size_t shards = 1;
  std::size_t batch = 1024;
  std::optional<double> pace;  // nullopt = max speed
  std::string json_out;
};

/// Order-sensitive 64-bit row-stream digest (splitmix64 step per word):
/// equal digests across runs mean bit-identical released rows.
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
  for (const auto flag : row.valid) digest.mix(flag ? 1u : 0u);
}

struct ReplayResult {
  double seconds = 0.0;
  std::uint64_t reports = 0;
  std::uint64_t rows = 0;
  std::uint64_t digest = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t rounds = 0;
  net::WireCounters wire;
};

std::size_t parse_count_arg(const std::string& flag,
                            const std::string& value) {
  if (value.empty()) throw Error(flag + ": missing value");
  std::size_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      throw Error(flag + ": expected a positive integer, got '" + value +
                  "'");
    }
    parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    if (parsed > (std::size_t{1} << 20)) {
      throw Error(flag + ": value out of range: '" + value + "'");
    }
  }
  if (parsed == 0) {
    throw Error(flag + ": expected a positive integer, got '" + value +
                "'");
  }
  return parsed;
}

double parse_pace_arg(const std::string& value) {
  // Reuse the strict env parser by staging the value through it would
  // need a setenv round-trip; mirror its rules instead: plain decimal,
  // finite, positive, bounded.
  for (const char c : value) {
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      throw Error("--pace: expected a finite positive number, got '" +
                  value + "'");
    }
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(parsed > 0.0) ||
      parsed > 1e12) {
    throw Error("--pace: expected a finite positive number, got '" +
                value + "'");
  }
  return parsed;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  opts.lanes = common::env_count("FADEWICH_INGEST_LANES", 1,
                                 /*max_value=*/64);
  opts.pace = common::env_positive_real("FADEWICH_REPLAY_PACE");
  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t i = 0;
  const auto take_value = [&](const std::string& flag) {
    if (i + 1 >= args.size()) throw Error(flag + ": missing value");
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--lanes") {
      opts.lanes = parse_count_arg(arg, take_value(arg));
    } else if (arg == "--shards") {
      opts.shards = parse_count_arg(arg, take_value(arg));
    } else if (arg == "--batch") {
      opts.batch = parse_count_arg(arg, take_value(arg));
    } else if (arg == "--pace") {
      opts.pace = parse_pace_arg(take_value(arg));
    } else if (arg == "--max") {
      opts.pace.reset();
    } else if (arg == "--json") {
      opts.json_out = take_value(arg);
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown flag: " + arg);
    } else if (opts.capture.empty()) {
      opts.capture = arg;
    } else {
      throw Error("unexpected argument: " + arg);
    }
  }
  if (opts.capture.empty()) {
    throw Error(
        "usage: wire_replay <capture> [--lanes N] [--shards S] "
        "[--batch N] [--pace X | --max] [--json out.json]");
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Max-speed replay: the sharded ingest plane end to end.
ReplayResult replay_max(const net::Capture& capture, const Options& opts) {
  net::PlaneConfig config;
  config.lanes = opts.lanes;
  config.shards = opts.shards;
  config.drain_batch = opts.batch;
  net::IngestPlane plane(config);

  std::vector<net::CentralStation> stations;
  stations.reserve(opts.shards);
  for (std::size_t s = 0; s < opts.shards; ++s) {
    stations.emplace_back(capture.header.device_count);
  }
  std::vector<RowDigest> digests(opts.shards);
  ReplayResult result;

  const auto start = std::chrono::steady_clock::now();
  result.reports = plane.replay(
      capture.frames,
      [&](std::size_t shard, std::span<const Measurement> batch) {
        stations[shard].ingest(
            batch, [&, shard](const net::StationRow& row) {
              digest_row(digests[shard], row);
              ++result.rows;
            });
      });
  result.seconds = seconds_since(start);

  RowDigest combined;
  for (const RowDigest& d : digests) combined.mix(d.value());
  result.digest = combined.value();
  result.wire = plane.counters().wire;
  result.backpressure = plane.counters().ring_full_backpressure;
  result.rounds = plane.counters().rounds;
  return result;
}

/// Paced replay: single-lane streaming decode, throttled so capture tick
/// t is delivered no earlier than (t - t0) / (tick_hz * pace) seconds of
/// wall clock after the first frame.
ReplayResult replay_paced(const net::Capture& capture, const Options& opts,
                          double pace) {
  std::vector<net::CentralStation> stations;
  stations.reserve(opts.shards);
  for (std::size_t s = 0; s < opts.shards; ++s) {
    stations.emplace_back(capture.header.device_count);
  }
  std::vector<RowDigest> digests(opts.shards);
  std::vector<Measurement> scratch(net::kMaxFrameReports);
  ReplayResult result;

  const std::span<const std::uint8_t> bytes = capture.frames;
  const double tick_seconds = 1.0 / (capture.header.tick_hz * pace);
  std::optional<Tick> first_tick;
  const auto start = std::chrono::steady_clock::now();
  std::size_t pos = 0;
  net::FrameView view;
  while (pos < bytes.size()) {
    switch (net::scan_frame(bytes, pos, view, result.wire)) {
      case net::ScanOutcome::kFrame: {
        if (!first_tick) first_tick = view.header.tick;
        const double due = static_cast<double>(view.header.tick -
                                               *first_tick) *
                           tick_seconds;
        const double elapsed = seconds_since(start);
        if (due > elapsed) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - elapsed));
        }
        const std::size_t shard =
            static_cast<std::size_t>(view.header.station_id) %
            opts.shards;
        for (std::uint16_t i = 0; i < view.count; ++i) {
          const net::WireReport r = view.report(i);
          scratch[i] = {view.header.tx, r.rx, view.header.tick,
                        static_cast<double>(r.rssi_dbm)};
        }
        stations[shard].ingest(
            {scratch.data(), view.count},
            [&, shard](const net::StationRow& row) {
              digest_row(digests[shard], row);
              ++result.rows;
            });
        result.reports += view.count;
        pos += view.size;
        break;
      }
      case net::ScanOutcome::kNeedMore:
        pos = net::finish_scan(bytes, pos, result.wire);
        break;
      default:
        ++pos;
        break;
    }
  }
  result.seconds = seconds_since(start);

  RowDigest combined;
  for (const RowDigest& d : digests) combined.mix(d.value());
  result.digest = combined.value();
  return result;
}

void write_json(const Options& opts, const net::Capture& capture,
                const ReplayResult& result) {
  std::ofstream os(opts.json_out);
  if (!os) throw Error("cannot open for writing: " + opts.json_out);
  const double rate = result.seconds > 0.0
                          ? static_cast<double>(result.reports) /
                                result.seconds
                          : 0.0;
  os << "{\n";
  os << "  \"schema\": \"fadewich-wire-replay/1\",\n";
  os << "  \"capture\": \"" << opts.capture << "\",\n";
  os << "  \"mode\": \"" << (opts.pace ? "paced" : "max") << "\",\n";
  if (opts.pace) os << "  \"pace\": " << *opts.pace << ",\n";
  os << "  \"lanes\": " << opts.lanes << ",\n";
  os << "  \"shards\": " << opts.shards << ",\n";
  os << "  \"devices\": " << capture.header.device_count << ",\n";
  os << "  \"seconds\": " << result.seconds << ",\n";
  os << "  \"reports\": " << result.reports << ",\n";
  os << "  \"reports_per_sec\": " << rate << ",\n";
  os << "  \"rows\": " << result.rows << ",\n";
  os << "  \"row_digest\": \"" << std::hex << result.digest << std::dec
     << "\",\n";
  os << "  \"frames_ok\": " << result.wire.frames_ok << ",\n";
  os << "  \"bad_crc\": " << result.wire.bad_crc << ",\n";
  os << "  \"truncated\": " << result.wire.truncated << ",\n";
  os << "  \"resync_bytes\": " << result.wire.resync_bytes << ",\n";
  os << "  \"ring_full_backpressure\": " << result.backpressure << ",\n";
  os << "  \"rounds\": " << result.rounds << "\n";
  os << "}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  const net::Capture capture = net::load_capture(opts.capture);
  std::cerr << "[wire_replay] " << opts.capture << ": "
            << capture.frames.size() << " frame bytes, "
            << capture.header.device_count << " devices @ "
            << capture.header.tick_hz << " Hz\n";

  const ReplayResult result =
      opts.pace ? replay_paced(capture, opts, *opts.pace)
                : replay_max(capture, opts);

  const double rate = result.seconds > 0.0
                          ? static_cast<double>(result.reports) /
                                result.seconds
                          : 0.0;
  std::cerr << "[wire_replay] mode=" << (opts.pace ? "paced" : "max")
            << " lanes=" << opts.lanes << " shards=" << opts.shards
            << ": " << result.reports << " reports in " << result.seconds
            << " s (" << rate << "/s), " << result.rows
            << " rows, digest=" << std::hex << result.digest << std::dec
            << "\n";
  if (result.wire.bad_crc > 0 || result.wire.truncated > 0 ||
      result.wire.resync_bytes > 0) {
    std::cerr << "[wire_replay] anomalies: bad_crc="
              << result.wire.bad_crc
              << " truncated=" << result.wire.truncated
              << " resync_bytes=" << result.wire.resync_bytes << "\n";
  }
  if (!opts.json_out.empty()) write_json(opts, capture, result);
  return 0;
}

}  // namespace
}  // namespace fadewich

int main(int argc, char** argv) {
  try {
    return fadewich::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "[wire_replay] error: " << e.what() << "\n";
    return 1;
  }
}
