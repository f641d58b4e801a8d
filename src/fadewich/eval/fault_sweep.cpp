#include "fadewich/eval/fault_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/eval/paper_setup.hpp"

namespace fadewich::eval {

StationRecorder::StationRecorder(const net::CentralStation& station,
                                 const sim::Recording& original)
    : out_(original.rate().hz(), original.sensor_count(),
           original.day_length(), original.day_count()),
      rec_stream_(station.stream_count()),
      row_(station.stream_count(), 0.0) {
  out_.events() = original.events();
  out_.seated_intervals() = original.seated_intervals();
  // Station stream order -> recording stream order (both are the dense
  // tx-major layout today; the map keeps the replay correct if either
  // side ever changes).
  for (std::size_t s = 0; s < rec_stream_.size(); ++s) {
    const auto [tx, rx] = station.stream_pair(s);
    rec_stream_[s] = original.stream_index(tx, rx);
  }
}

const std::vector<double>& StationRecorder::append(
    const net::StationRow& row) {
  fill_to(row.tick);  // eviction gap
  for (std::size_t s = 0; s < rec_stream_.size(); ++s) {
    row_[rec_stream_[s]] = row.values[s];
  }
  out_.append_samples(row_);
  ++next_;
  return row_;
}

void StationRecorder::fill_to(Tick ticks) {
  for (; next_ < ticks; ++next_) {
    out_.append_samples(row_);
    ++gaps_;
  }
}

sim::Recording StationRecorder::finish(Tick ticks) {
  fill_to(ticks);  // fully evicted tail, if any
  FADEWICH_ENSURES(out_.tick_count() == ticks);
  return std::move(out_);
}

ReplayResult replay_through_station(const sim::Recording& original,
                                    const net::FaultConfig& faults,
                                    net::StationConfig station_config,
                                    std::uint64_t seed) {
  const std::size_t m = original.sensor_count();
  const Tick ticks = original.tick_count();

  net::CentralStation station(m, station_config);
  std::optional<net::FaultInjector> injector;
  if (faults.enabled()) injector.emplace(m, faults, seed);
  StationRecorder recorder(station, original);
  const net::CentralStation::RowSink record =
      [&recorder](const net::StationRow& row) { recorder.append(row); };

  std::vector<net::Measurement> batch;
  const auto ingest = [&](Tick t) {
    if (injector) injector->advance(t, batch);
    station.ingest(batch, record, t);
    batch.clear();
  };
  const auto devices = static_cast<net::DeviceId>(m);
  for (Tick t = 0; t < ticks; ++t) {
    for (net::DeviceId tx = 0; tx < devices; ++tx) {
      for (net::DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx) continue;
        const net::Measurement report{
            tx, rx, t,
            original.rssi(original.stream_index(tx, rx), t)};
        if (injector) {
          injector->offer(report, batch);
        } else {
          batch.push_back(report);
        }
      }
    }
    ingest(t);
  }

  // Drain delayed traffic and force the deadline on trailing ticks.
  const Tick horizon = ticks + station_config.deadline_ticks +
                       (injector ? faults.max_delay_ticks : 0) + 1;
  for (Tick t = ticks; t < horizon && recorder.ticks() < ticks; ++t) {
    ingest(t);
  }

  ReplayResult out{recorder.finish(ticks), station.health(), {},
                   recorder.gaps()};
  if (injector) out.fault_counters = injector->counters();
  return out;
}

net::FaultConfig scenario_faults(const FaultScenario& scenario,
                                 std::size_t sensor_count,
                                 Tick tick_count) {
  FADEWICH_EXPECTS(scenario.dropped_sensors < sensor_count);
  net::FaultConfig faults;
  faults.drop_probability = scenario.loss_rate;
  const std::vector<std::size_t> priority = sensor_subset(sensor_count);
  for (std::size_t k = 0; k < scenario.dropped_sensors; ++k) {
    net::SensorOutage outage;
    outage.device =
        static_cast<net::DeviceId>(priority[priority.size() - 1 - k]);
    outage.from = 0;
    outage.to = tick_count;
    faults.outages.push_back(outage);
  }
  return faults;
}

FaultScenarioResult evaluate_fault_scenario(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config, const FaultScenario& scenario) {
  net::StationConfig station_config;
  station_config.deadline_ticks = scenario.deadline_ticks;
  const net::FaultConfig faults = scenario_faults(
      scenario, recording.sensor_count(), recording.tick_count());

  ReplayResult replay = replay_through_station(
      recording, faults, station_config, scenario.seed);

  const SecurityResult security = evaluate_security(
      replay.recording, sensors, md_config, config);

  FaultScenarioResult out;
  out.scenario = scenario;
  out.health = replay.health;
  out.fault_counters = replay.fault_counters;
  out.re_accuracy = security.re_accuracy;
  out.leave_events = security.outcomes.size();
  std::vector<double> delays;
  delays.reserve(security.outcomes.size());
  for (const LeaveOutcome& o : security.outcomes) {
    switch (o.outcome) {
      case DeauthCase::kCorrect: ++out.case_a; break;
      case DeauthCase::kMisclassified: ++out.case_b; break;
      case DeauthCase::kMissed: ++out.case_c; break;
    }
    delays.push_back(o.delay);
  }
  if (!delays.empty()) {
    double sum = 0.0;
    for (const double d : delays) sum += d;
    out.mean_delay = sum / static_cast<double>(delays.size());
    std::sort(delays.begin(), delays.end());
    const auto idx = static_cast<std::size_t>(std::ceil(
                         0.9 * static_cast<double>(delays.size()))) -
                     1;
    out.p90_delay = delays[std::min(idx, delays.size() - 1)];
  }
  return out;
}

}  // namespace fadewich::eval
