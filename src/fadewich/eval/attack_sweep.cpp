#include "fadewich/eval/attack_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/core/radio_environment.hpp"
#include "fadewich/eval/fault_sweep.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/rf/pathloss.hpp"

namespace fadewich::eval {

AttackReplayResult replay_under_attack(
    const sim::Recording& original,
    const std::vector<rf::Point>& positions,
    const AttackScenario& scenario) {
  const std::size_t m = original.sensor_count();
  const Tick ticks = original.tick_count();

  net::StationConfig station_config;
  station_config.deadline_ticks = scenario.deadline_ticks;
  net::CentralStation station(m, station_config);

  std::optional<net::AttackInjector> injector;
  if (scenario.attack.enabled()) {
    injector.emplace(m, scenario.attack, scenario.seed);
  }

  std::optional<defend::Defender> defender;
  if (scenario.defend) {
    if (positions.empty()) {
      defender.emplace(m, scenario.defend_config);
    } else {
      defender.emplace(m, scenario.defend_config, positions,
                       rf::PathLossConfig{}, /*tx_power_dbm=*/0.0);
    }
  }

  // Legitimate stations sign their frames with the deployment's key
  // schedule; a key-compromise campaign receives the same material.
  std::vector<net::WireKey> keys(m);
  for (std::size_t d = 0; d < m; ++d) {
    keys[d] = net::derive_station_key(scenario.defend_config.key_seed,
                                      static_cast<std::uint16_t>(d));
  }
  if (injector && scenario.attack.forge_with_key) {
    injector->set_station_keys(keys);
  }

  StationRecorder recorder(station, original);
  Crc32 digest;
  const net::CentralStation::RowSink record =
      [&recorder, &digest](const net::StationRow& row) {
        const std::vector<double>& samples = recorder.append(row);
        digest.update(samples.data(), samples.size() * sizeof(double));
      };

  net::FrameDecoder decoder;
  std::vector<std::uint8_t> frame_scratch;
  std::vector<std::uint8_t> wire;
  std::vector<net::WireReport> reports;
  std::vector<net::Measurement> batch;
  std::vector<std::uint64_t> next_seq(m, 0);

  const auto pump = [&](Tick t) {
    decoder.feed(wire);
    wire.clear();
    while (const net::DecodedFrame* frame = decoder.next()) {
      if (defender) {
        defender->filter_frame(*frame, t, batch);
      } else {
        net::to_measurements(*frame, batch);
      }
    }
    station.ingest(batch, record, t);
    batch.clear();
  };

  const auto devices = static_cast<net::DeviceId>(m);
  for (Tick t = 0; t < ticks; ++t) {
    for (net::DeviceId tx = 0; tx < devices; ++tx) {
      net::FrameHeader header;
      header.station_id = tx;
      header.tx = tx;
      header.tick = t;
      header.seq = next_seq[tx]++;
      reports.clear();
      for (net::DeviceId rx = 0; rx < devices; ++rx) {
        if (rx == tx) continue;
        const std::size_t s = station.stream_index(tx, rx);
        double value = original.rssi(original.stream_index(tx, rx), t);
        if (injector) value = injector->jam(t, s, value);
        reports.push_back({rx, net::wire_encode_dbm(value)});
      }
      frame_scratch.clear();
      net::encode_frame(header, reports, frame_scratch, &keys[tx]);
      if (injector) {
        injector->offer_frame(header, frame_scratch, wire);
      } else {
        wire.insert(wire.end(), frame_scratch.begin(), frame_scratch.end());
      }
    }
    if (injector) injector->advance(t, wire);
    pump(t);
  }

  // Force the deadline on trailing ticks and drain matured replays.
  const Tick horizon =
      ticks + scenario.deadline_ticks +
      (injector ? scenario.attack.replay_delay_ticks : 0) + 1;
  for (Tick t = ticks; t < horizon && recorder.ticks() < ticks; ++t) {
    if (injector) injector->advance(t, wire);
    pump(t);
  }
  decoder.finish();

  if (defender) defender->publish_metrics(ticks);
  AttackReplayResult out{recorder.finish(ticks), station.health(),
                         decoder.counters(), {}, {}, recorder.gaps(), 0};
  if (injector) out.attack = injector->counters();
  if (defender) out.defend = defender->counters();
  out.row_digest =
      (static_cast<std::uint64_t>(digest.value()) << 32) |
      static_cast<std::uint64_t>(ticks);
  return out;
}

AttackScenarioResult evaluate_attack_scenario(
    const sim::Recording& recording,
    const std::vector<rf::Point>& positions,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config, const AttackScenario& scenario) {
  AttackReplayResult replay =
      replay_under_attack(recording, positions, scenario);
  const SecurityResult security =
      evaluate_security(replay.recording, sensors, md_config, config);

  AttackScenarioResult out;
  out.scenario = scenario;
  out.health = replay.health;
  out.wire = replay.wire;
  out.attack = replay.attack;
  out.defend = replay.defend;
  out.gap_rows = replay.gap_rows;
  out.row_digest = replay.row_digest;
  out.re_accuracy = security.re_accuracy;
  out.leave_events = security.outcomes.size();

  for (const WindowDecision& d : security.decisions) {
    if (!d.is_true_positive && core::is_leave_label(d.predicted_label)) {
      ++out.spurious_deauths;
    }
  }

  static obs::Histogram under_attack_delay = obs::registry().histogram(
      "fadewich_defend_under_attack_deauth_seconds",
      "deauth delay per leave event while an attack campaign is active",
      {1, 2, 4, 6, 8, 12, 16, 24, 32, 64, 128, 300});

  std::vector<double> delays;
  delays.reserve(security.outcomes.size());
  for (const LeaveOutcome& o : security.outcomes) {
    switch (o.outcome) {
      case DeauthCase::kCorrect: ++out.case_a; break;
      case DeauthCase::kMisclassified: ++out.case_b; break;
      case DeauthCase::kMissed: ++out.case_c; break;
    }
    delays.push_back(o.delay);
    if (scenario.attack.enabled()) under_attack_delay.observe(o.delay);
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

std::vector<AttackScenario> standard_attack_scenarios(
    Tick tick_count, std::size_t device_count, bool defend,
    const defend::DefendConfig& defend_config, std::uint64_t seed) {
  FADEWICH_EXPECTS(device_count >= 2);
  const Tick mid = tick_count / 2;
  const Tick span = std::min<Tick>(tick_count / 4, 1500);  // <= 5 min @5Hz
  const auto window_from = mid - span / 2;
  const auto window_to = mid + span / 2;

  std::vector<AttackScenario> scenarios;
  const auto add = [&](const char* name, net::AttackConfig attack) {
    AttackScenario s;
    s.name = name;
    s.attack = std::move(attack);
    s.defend = defend;
    s.defend_config = defend_config;
    s.seed = seed;
    scenarios.push_back(std::move(s));
  };

  add("clean", {});

  {
    net::AttackConfig a;  // outsider forging without key material
    a.forged_per_tick = 1;
    a.forge_station = 0;
    a.forge_from = window_from;
    a.forge_to = window_to;
    add("forge", a);
  }
  {
    net::AttackConfig a;  // insider holding station 0's key
    a.forged_per_tick = 1;
    a.forge_station = 0;
    a.forge_from = window_from;
    a.forge_to = window_to;
    a.forge_with_key = true;
    add("forge_insider", a);
  }
  {
    net::AttackConfig a;  // capture, rewrite, suppress: takeover
    a.capture_probability = 0.5;
    a.replay_rewrite = true;
    a.replay_suppress = true;
    a.replay_station = 0;
    a.replay_delay_ticks = 10;
    a.replay_from = window_from;
    a.replay_to = window_to;
    add("replay_takeover", a);
  }
  {
    net::AttackConfig a;  // frame flood against station 0's identity
    a.flood_per_tick = 32;
    a.flood_station = 0;
    a.flood_from = window_from;
    a.flood_to = window_to;
    add("flood", a);
  }
  {
    net::AttackConfig a;  // targeted sensor-outage DoS: two stations dark
    a.outages.push_back({0, window_from, window_to});
    if (device_count > 1) {
      a.outages.push_back(
          {static_cast<net::DeviceId>(device_count - 1), window_from,
           window_to});
    }
    add("outage_dos", a);
  }
  {
    net::AttackConfig a;  // RF noise powerful enough to mimic movement
    net::JamWindow w;
    w.from = window_from;
    w.to = window_to;
    w.mode = net::JamWindow::Mode::kMimic;
    w.sigma_db = 12.0;
    a.jams.push_back(w);
    add("jam_mimic", a);
  }
  {
    net::AttackConfig a;  // frozen channel: hide real movement
    net::JamWindow w;
    w.from = window_from;
    w.to = window_to;
    w.mode = net::JamWindow::Mode::kMask;
    a.jams.push_back(w);
    add("jam_mask", a);
  }
  return scenarios;
}

}  // namespace fadewich::eval
