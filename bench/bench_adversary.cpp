// Active-adversary trajectory: the security outcome while the reporting
// path is under attack — forged frames, replay takeover, floods,
// sensor-outage DoS, and RF jamming — with the defend module off and
// on.  Writes BENCH_adversary.json so successive PRs can regress
// against detection rates and under-attack case-A accuracy.
//
//   ./bench_adversary [output.json]   (default: BENCH_adversary.json)
//
// Two hard checks, both fatal (nonzero exit):
//   1. The clean run with the defender enabled must reconstruct a
//      bit-identical RSSI matrix to the clean run without it — the
//      defender may not tax an honest week.
//   2. With the defender on, no *frame-injecting* campaign (forge,
//      replay, flood) may add spurious deauthentications over the
//      defended clean anchor.  Pure availability attacks (outage DoS,
//      RF jamming) remove information the defender cannot conjure
//      back; their residual outcome shift is reported, not gated.
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "fadewich/eval/attack_sweep.hpp"
#include "fadewich/exec/thread_pool.hpp"

using namespace fadewich;

namespace {

void write_json(const std::string& path, bool clean_identical,
                const std::vector<eval::AttackScenarioResult>& results) {
  bench::JsonReport json(path, "fadewich-bench-adversary/1",
                         exec::default_thread_count());
  json.field("clean_runs_identical", clean_identical)
      .begin_array("scenarios");
  for (const eval::AttackScenarioResult& r : results) {
    const std::uint64_t injected =
        r.attack.forged + r.attack.replayed + r.attack.flooded;
    const double detection =
        injected == 0 ? 0.0
                      : static_cast<double>(r.defend.frames_rejected()) /
                            static_cast<double>(injected);
    json.begin_object()
        .field("name", r.scenario.name)
        .field("defended", r.scenario.defend)
        .field("leave_events", r.leave_events)
        .field("case_a", r.case_a)
        .field("case_b", r.case_b)
        .field("case_c", r.case_c)
        .field("mean_deauth_delay_s", r.mean_delay)
        .field("p90_deauth_delay_s", r.p90_delay)
        .field("re_accuracy", r.re_accuracy)
        .field("spurious_deauths", r.spurious_deauths)
        .field("attack_forged", r.attack.forged)
        .field("attack_replayed", r.attack.replayed)
        .field("attack_flooded", r.attack.flooded)
        .field("attack_suppressed", r.attack.suppressed)
        .field("attack_jammed_samples", r.attack.jammed_samples)
        .field("defend_frames_rejected", r.defend.frames_rejected())
        .field("defend_bad_tag", r.defend.bad_tag)
        .field("defend_unauthenticated", r.defend.unauthenticated)
        .field("defend_replayed", r.defend.replayed + r.defend.stale)
        .field("defend_rate_limited", r.defend.rate_limited)
        .field("defend_reports_dropped",
               r.defend.impossible_rssi + r.defend.variance_flags +
                   r.defend.stuck_drops + r.defend.link_quarantine_drops)
        .field("defend_link_quarantine_drops",
               r.defend.link_quarantine_drops)
        .field("detection_rate", detection)
        .field("station_imputed_cells", r.health.imputed_cells)
        .field("station_malformed", r.health.malformed)
        .field("station_duplicates_rejected", r.health.duplicates_rejected)
        .field("wire_rejected_frames", r.wire.rejected_frames())
        .field("row_digest", r.row_digest)
        .end();
  }
  json.end();

  // Availability campaigns (outage DoS, RF jamming) remove information
  // the defender cannot conjure back, so their spurious-deauth residue
  // is trended here rather than gated: successive PRs can watch the
  // drift without a hard ratchet.  Deltas are relative to the defended
  // clean anchor.
  const eval::AttackScenarioResult* clean_defended = nullptr;
  for (const eval::AttackScenarioResult& r : results) {
    if (r.scenario.name == "clean" && r.scenario.defend) clean_defended = &r;
  }
  const std::uint64_t anchor =
      clean_defended != nullptr ? clean_defended->spurious_deauths : 0;
  json.begin_object("availability_trend");
  for (const eval::AttackScenarioResult& r : results) {
    if (!r.scenario.defend) continue;
    if (r.scenario.name != "outage_dos" && r.scenario.name != "jam_mimic" &&
        r.scenario.name != "jam_mask") {
      continue;
    }
    const std::uint64_t over =
        r.spurious_deauths > anchor ? r.spurious_deauths - anchor : 0;
    json.begin_object(r.scenario.name)
        .field("spurious_deauths", r.spurious_deauths)
        .field("spurious_over_clean", over)
        .field("jammed_samples", r.attack.jammed_samples)
        .field("imputed_cells", r.health.imputed_cells)
        .end();
  }
  json.end().close();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_adversary.json");
  const eval::PaperExperiment experiment = bench::make_experiment();
  const std::vector<std::size_t> sensors =
      eval::sensor_subset(experiment.recording.sensor_count());
  const std::vector<rf::Point>& positions = experiment.plan.sensors;
  const Tick ticks = experiment.recording.tick_count();
  const std::size_t devices = experiment.recording.sensor_count();
  const defend::DefendConfig defend_config;  // library defaults

  std::vector<eval::AttackScenarioResult> results;
  for (const bool defended : {false, true}) {
    for (const eval::AttackScenario& scenario :
         eval::standard_attack_scenarios(ticks, devices, defended,
                                         defend_config, /*seed=*/11)) {
      std::cerr << "[bench_adversary] " << scenario.name
                << (defended ? " (defended)..." : " (undefended)...")
                << "\n";
      results.push_back(eval::evaluate_attack_scenario(
          experiment.recording, positions, sensors,
          eval::default_md_config(), eval::SecurityConfig{}, scenario));
      const eval::AttackScenarioResult& r = results.back();
      std::cerr << "[bench_adversary]   A=" << r.case_a
                << " B=" << r.case_b << " C=" << r.case_c << " of "
                << r.leave_events << ", spurious " << r.spurious_deauths
                << ", rejected " << r.defend.frames_rejected() << "\n";
    }
  }

  const auto find = [&](const std::string& name,
                        bool defended) -> const eval::AttackScenarioResult& {
    for (const eval::AttackScenarioResult& r : results) {
      if (r.scenario.name == name && r.scenario.defend == defended) {
        return r;
      }
    }
    std::cerr << "bench_adversary: missing scenario " << name << "\n";
    std::exit(1);
  };

  const eval::AttackScenarioResult& clean_off = find("clean", false);
  const eval::AttackScenarioResult& clean_on = find("clean", true);
  const bool clean_identical = clean_off.row_digest == clean_on.row_digest;

  eval::print_banner(std::cout,
                     "Active adversary: deauth outcome under attack, "
                     "defender off vs on");
  eval::TextTable table({"campaign", "defended", "case A", "case B",
                         "case C", "spurious", "detect %", "imputed"});
  for (const eval::AttackScenarioResult& r : results) {
    const std::uint64_t injected =
        r.attack.forged + r.attack.replayed + r.attack.flooded;
    const double detection =
        injected == 0 ? 0.0
                      : 100.0 * static_cast<double>(
                                    r.defend.frames_rejected()) /
                            static_cast<double>(injected);
    table.add_row({r.scenario.name, r.scenario.defend ? "yes" : "no",
                   std::to_string(r.case_a), std::to_string(r.case_b),
                   std::to_string(r.case_c),
                   std::to_string(r.spurious_deauths),
                   eval::fmt(detection, 1),
                   std::to_string(r.health.imputed_cells)});
  }
  table.print(std::cout);

  write_json(path, clean_identical, results);
  std::cerr << "[bench_adversary] wrote " << path << "\n";

  int rc = 0;
  if (!clean_identical) {
    std::cerr << "bench_adversary: FAIL — defender changed the clean "
                 "reconstruction (digest "
              << clean_on.row_digest << " vs " << clean_off.row_digest
              << ")\n";
    rc = 1;
  }
  for (const eval::AttackScenarioResult& r : results) {
    if (!r.scenario.defend || !r.scenario.attack.enabled()) continue;
    const bool injects_frames = r.attack.forged + r.attack.replayed +
                                    r.attack.flooded >
                                0;
    if (!injects_frames) continue;
    if (r.spurious_deauths > clean_on.spurious_deauths) {
      std::cerr << "bench_adversary: FAIL — campaign " << r.scenario.name
                << " induced " << r.spurious_deauths -
                                      clean_on.spurious_deauths
                << " spurious deauth(s) past the defender\n";
      rc = 1;
    }
  }
  if (rc == 0) {
    std::cout << "\nclean runs bit-identical; no defended campaign "
                 "induced a spurious deauthentication\n";
  }
  return rc;
}
