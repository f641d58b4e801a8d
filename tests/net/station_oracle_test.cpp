// Differential test: the single-engine CentralStation against the
// station it replaced (oracle/central_station.hpp: a std::map generic
// path plus an ordered fast path).  Seeded streams, two families:
//
//   (a) deadline 1-4 with `now` every tick: reordered, duplicated,
//       revised, late, malformed and far-future reports, sensor outages
//       and max_pending pressure, ingested through ingest/take_row on
//       both.  The released row sequence (tick, values bit for bit,
//       validity, missing), buffered counts, every StationHealth field
//       and both lifetime totals must agree after every call.
//   (b) tick-non-decreasing streams without `now` and with lost frames,
//       split into random batches: the RowSink form must emit exactly
//       the rows, and end with exactly the counters, of the reference's
//       ingest_ordered + finish_ordered.

#include "fadewich/net/central_station.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "oracle/central_station.hpp"

namespace fadewich::net {
namespace {

constexpr int kStreamsPerFamily = 2000;

/// First difference between two rows, or empty.
std::string row_diff(const StationRow& got, const StationRow& want) {
  std::ostringstream os;
  if (got.tick != want.tick) {
    os << "tick " << got.tick << " vs " << want.tick;
  } else if (got.values.size() != want.values.size() ||
             std::memcmp(got.values.data(), want.values.data(),
                         got.values.size() * sizeof(double)) != 0) {
    os << "values differ at tick " << got.tick;
  } else if (got.valid != want.valid) {
    os << "validity differs at tick " << got.tick;
  } else if (got.missing != want.missing) {
    os << "missing " << got.missing << " vs " << want.missing;
  }
  return os.str();
}

std::string health_diff(const StationHealth& got, const StationHealth& want) {
  std::ostringstream os;
  const auto field = [&os](const char* name, std::uint64_t a,
                           std::uint64_t b) {
    if (a != b && os.tellp() == 0) os << name << " " << a << " vs " << b;
  };
  field("reports", got.reports, want.reports);
  field("duplicates", got.duplicates, want.duplicates);
  field("late_reports", got.late_reports, want.late_reports);
  field("evictions", got.evictions, want.evictions);
  field("incomplete_releases", got.incomplete_releases,
        want.incomplete_releases);
  field("imputed_cells", got.imputed_cells, want.imputed_cells);
  field("duplicates_rejected", got.duplicates_rejected,
        want.duplicates_rejected);
  field("malformed", got.malformed, want.malformed);
  if (os.tellp() == 0 && got.imputed_per_stream != want.imputed_per_stream) {
    os << "imputed_per_stream";
  }
  return os.str();
}

template <typename Reference>
std::string state_diff(const CentralStation& got, const Reference& want) {
  std::string diff = health_diff(got.health(), want.health());
  if (!diff.empty()) return diff;
  if (got.lifetime_evictions() != want.lifetime_evictions()) {
    return "lifetime_evictions";
  }
  if (got.lifetime_imputed_cells() != want.lifetime_imputed_cells()) {
    return "lifetime_imputed_cells";
  }
  if (got.buffered_count() != want.buffered_count()) {
    return "buffered_count " + std::to_string(got.buffered_count()) +
           " vs " + std::to_string(want.buffered_count());
  }
  return {};
}

/// A value on the int8 dBm grid the wire carries, so exact repeats and
/// revisions both happen often.
double rssi(Rng& rng) {
  return static_cast<double>(rng.uniform_int(-90, -30));
}

// --- family (a): deadline stations driven by `now` -------------------

/// Returns the first divergence of one seeded stream, or empty.
std::string run_deadline_stream(std::uint64_t seed) {
  Rng rng(seed);
  const auto devices = static_cast<std::size_t>(rng.uniform_int(2, 5));
  StationConfig config;
  config.deadline_ticks = rng.uniform_int(1, 4);
  config.max_pending = rng.bernoulli(0.5)
                           ? static_cast<std::size_t>(rng.uniform_int(1, 12))
                           : std::size_t{1024};
  CentralStation station(devices, config);
  oracle::CentralStation reference(devices, config);

  const double loss = rng.uniform(0.0, 0.3);
  const double delay = rng.uniform(0.0, 0.3);
  const double duplicate = rng.uniform(0.0, 0.1);
  const double revise = rng.uniform(0.0, 0.1);
  const Tick ticks = rng.uniform_int(10, 60);
  const auto dark = static_cast<DeviceId>(rng.uniform_int(0, devices - 1));
  const Tick dark_from = rng.uniform_int(0, ticks);
  const Tick dark_to = dark_from + rng.uniform_int(0, 15);

  std::vector<std::vector<Measurement>> delayed(
      static_cast<std::size_t>(ticks) + 8);
  std::vector<Measurement> batch;
  for (Tick now = 0; now < ticks + config.deadline_ticks + 8; ++now) {
    batch.clear();
    if (static_cast<std::size_t>(now) < delayed.size()) {
      batch = delayed[static_cast<std::size_t>(now)];
    }
    for (DeviceId tx = 0; now < ticks && tx < devices; ++tx) {
      for (DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx || rng.bernoulli(loss)) continue;
        if ((tx == dark || rx == dark) && now >= dark_from &&
            now <= dark_to) {
          continue;  // outage
        }
        const Measurement m{tx, rx, now, rssi(rng)};
        if (rng.bernoulli(delay)) {
          const Tick due = now + rng.uniform_int(1, 7);
          delayed[std::min<std::size_t>(static_cast<std::size_t>(due),
                                        delayed.size() - 1)]
              .push_back(m);
        } else {
          batch.push_back(m);
        }
        if (rng.bernoulli(duplicate)) batch.push_back(m);
        if (rng.bernoulli(revise)) batch.push_back({tx, rx, now, rssi(rng)});
      }
    }
    if (rng.bernoulli(0.1)) {  // malformed ids and ticks
      batch.push_back({static_cast<DeviceId>(devices), 0, now, -50.0});
      batch.push_back({1, 1, now, -50.0});
      batch.push_back({0, 1, -1 - now, -50.0});
    }
    if (rng.bernoulli(0.05)) {  // a sparse far-future tick
      batch.push_back({0, 1, now + rng.uniform_int(100, 100000), rssi(rng)});
    }
    if (rng.bernoulli(0.05) && now > 0) {  // a straggler from long ago
      batch.push_back({1, 0, rng.uniform_int(0, now - 1), rssi(rng)});
    }
    // Reorder within the batch.
    for (std::size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1],
                batch[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }

    const std::vector<Tick> got = station.ingest(batch, now);
    const std::vector<Tick> want = reference.ingest(batch, now);
    if (got != want) {
      return "ready ticks differ at now=" + std::to_string(now);
    }
    for (const Tick tick : got) {
      if (rng.bernoulli(0.15)) continue;  // leave some untaken
      const std::optional<StationRow> a = station.take_row(tick);
      const std::optional<StationRow> b = reference.take_row(tick);
      if (!a || !b) return "take_row lost tick " + std::to_string(tick);
      const std::string diff = row_diff(*a, *b);
      if (!diff.empty()) return diff;
    }
    // Probing unknown, held and taken ticks must agree too.
    const Tick probe = rng.uniform_int(0, now + 2);
    const std::optional<StationRow> a = station.take_row(probe);
    const std::optional<StationRow> b = reference.take_row(probe);
    if (a.has_value() != b.has_value()) {
      return "take_row probe disagrees at tick " + std::to_string(probe);
    }
    if (a && b) {
      const std::string diff = row_diff(*a, *b);
      if (!diff.empty()) return diff;
    }
    const std::string diff = state_diff(station, reference);
    if (!diff.empty()) return diff + " at now=" + std::to_string(now);
    if (rng.bernoulli(0.02)) {
      station.reset_health();
      reference.reset_health();
    }
  }
  return {};
}

TEST(StationOracleTest, DeadlineStreamsMatchTheGenericPath) {
  int mismatches = 0;
  std::string first;
  for (int i = 0; i < kStreamsPerFamily; ++i) {
    const std::string diff =
        run_deadline_stream(0xA5A5'0000ull + static_cast<std::uint64_t>(i));
    if (!diff.empty()) {
      if (mismatches++ == 0) first = "stream " + std::to_string(i) + ": " + diff;
    }
  }
  EXPECT_EQ(mismatches, 0) << first;
}

// --- family (b): tick-ordered streams without `now` ------------------

std::string run_ordered_stream(std::uint64_t seed) {
  Rng rng(seed);
  const auto devices = static_cast<std::size_t>(rng.uniform_int(2, 5));
  StationConfig config;  // default deadline: 1
  config.max_pending = rng.bernoulli(0.5)
                           ? static_cast<std::size_t>(rng.uniform_int(1, 8))
                           : std::size_t{1024};
  StationConfig strict = config;
  strict.deadline_ticks = 0;  // the reference's ordered path needs strict
  CentralStation station(devices, config);
  oracle::CentralStation reference(devices, strict);

  // Frames (one per transmitter and tick) are lost whole or in part;
  // ticks advance by one, or jump.
  const double frame_loss = rng.uniform(0.0, 0.3);
  const double report_loss = rng.uniform(0.0, 0.1);
  std::vector<Measurement> stream;
  Tick tick = rng.uniform_int(0, 5);
  const int rounds = static_cast<int>(rng.uniform_int(5, 60));
  for (int r = 0; r < rounds; ++r) {
    for (DeviceId tx = 0; tx < devices; ++tx) {
      if (rng.bernoulli(frame_loss)) continue;
      for (DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx || rng.bernoulli(report_loss)) continue;
        stream.push_back({tx, rx, tick, rssi(rng)});
      }
    }
    if (rng.bernoulli(0.05)) {  // malformed ids ride along
      stream.push_back({static_cast<DeviceId>(devices + 1), 0, tick, -50.0});
    }
    tick += rng.bernoulli(0.9) ? 1 : rng.uniform_int(2, 2000);
  }

  std::vector<StationRow> got;
  std::vector<StationRow> want;
  const CentralStation::RowSink keep_got = [&got](const StationRow& row) {
    got.push_back(row);
  };
  const oracle::CentralStation::RowSink keep_want =
      [&want](const StationRow& row) { want.push_back(row); };
  std::size_t at = 0;
  while (at < stream.size()) {
    const auto n = std::min<std::size_t>(
        stream.size() - at,
        static_cast<std::size_t>(rng.uniform_int(0, 3 * devices * devices)));
    const std::span<const Measurement> part(stream.data() + at, n);
    station.ingest(part, keep_got);
    reference.ingest_ordered(part, keep_want);
    at += n;
  }
  reference.finish_ordered(keep_want);

  if (got.size() != want.size()) {
    return "rows " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string diff = row_diff(got[i], want[i]);
    if (!diff.empty()) return diff;
  }
  return state_diff(station, reference);
}

TEST(StationOracleTest, OrderedStreamsMatchTheOrderedPath) {
  int mismatches = 0;
  std::string first;
  for (int i = 0; i < kStreamsPerFamily; ++i) {
    const std::string diff =
        run_ordered_stream(0x0DDE'0000ull + static_cast<std::uint64_t>(i));
    if (!diff.empty()) {
      if (mismatches++ == 0) first = "stream " + std::to_string(i) + ": " + diff;
    }
  }
  EXPECT_EQ(mismatches, 0) << first;
}

}  // namespace
}  // namespace fadewich::net
