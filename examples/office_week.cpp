// The full paper pipeline at paper scale: five 8-hour days in the Fig. 6
// office, offline analysis exactly as Section VII runs it — MD over the
// whole monitored period, TP/FP/FN against ground truth, RE trained and
// tested in stratified 5-fold cross validation, decision-tree outcomes,
// adversary analysis, and the usability bill.
//
// The final section runs the same week *online* under crash protection:
// a SupervisedSystem trains for two days, checkpoints every two minutes,
// has the plug pulled at the end of day 3, restarts from the snapshot
// ring, and finishes the week — printing the recovery report and the
// restart bill.
//
//   $ ./office_week [days] [sensors]
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>

#include "fadewich/eval/adversary.hpp"
#include "fadewich/eval/crash_replay.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/eval/report.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/eval/usability.hpp"
#include "fadewich/obs/obs.hpp"
#include "fadewich/persist/supervised_system.hpp"

using namespace fadewich;

int main(int argc, char** argv) {
  eval::PaperSetup setup;
  if (argc > 1) setup.days = std::stoul(argv[1]);
  std::size_t sensors = 9;
  if (argc > 2) sensors = std::stoul(argv[2]);

  std::cout << "Simulating " << setup.days << " day(s), analysing with "
            << sensors << " sensors...\n";
  const eval::PaperExperiment experiment =
      eval::make_paper_experiment(setup);

  const auto counts = eval::event_counts(experiment.recording, 3);
  eval::print_banner(std::cout, "Data collection");
  std::cout << "entries (w0): " << counts[0] << "   leaves: w1=" << counts[1]
            << " w2=" << counts[2] << " w3=" << counts[3] << "\n";

  eval::SecurityConfig config;
  const auto security = eval::evaluate_security(
      experiment.recording, eval::sensor_subset(sensors),
      eval::default_md_config(), config);

  eval::print_banner(std::cout, "Movement detection (MD)");
  const auto md_counts = security.matches.counts();
  std::cout << "TP=" << md_counts.true_positives
            << " FP=" << md_counts.false_positives
            << " FN=" << md_counts.false_negatives
            << "  precision=" << eval::fmt(md_counts.precision(), 3)
            << " recall=" << eval::fmt(md_counts.recall(), 3)
            << " F=" << eval::fmt(md_counts.f_measure(), 3) << "\n";

  eval::print_banner(std::cout, "Radio environment classifier (RE)");
  std::cout << "5-fold cross-validated accuracy: "
            << eval::fmt(security.re_accuracy, 3) << "\n";

  eval::print_banner(std::cout, "Deauthentication outcomes (Fig. 5)");
  const eval::OutcomeTally tally = eval::tally_outcomes(security.outcomes);
  double worst_delay = 0.0;
  for (const auto& outcome : security.outcomes) {
    if (outcome.outcome == eval::DeauthCase::kCorrect) {
      worst_delay = std::max(worst_delay, outcome.delay);
    }
  }
  std::cout << "case A (correct, t1+t_delta): " << tally.case_a
            << "\ncase B (misclassified, t+tID+tss): " << tally.case_b
            << "\ncase C (missed, timeout): " << tally.case_c
            << "\nslowest case-A deauthentication: "
            << eval::fmt(worst_delay, 1) << " s after departure\n";

  eval::print_banner(std::cout, "Lunchtime attacks");
  const auto attacks =
      eval::count_attack_opportunities(security, experiment.recording);
  const auto baseline = eval::count_attack_opportunities_timeout(
      experiment.recording, config.timeout);
  std::cout << "time-out baseline: insider "
            << eval::fmt(baseline.insider_percent(), 1) << "%, co-worker "
            << eval::fmt(baseline.coworker_percent(), 1) << "%\n"
            << "FADEWICH:          insider "
            << eval::fmt(attacks.insider_percent(), 1) << "%, co-worker "
            << eval::fmt(attacks.coworker_percent(), 1) << "%\n";

  eval::print_banner(std::cout, "Usability (per 8 h day)");
  eval::UsabilityConfig ucfg;
  const auto usability =
      eval::evaluate_usability(experiment.recording, security, ucfg);
  std::cout << "screensavers: "
            << eval::fmt(usability.screensavers_per_day_mean, 2)
            << "/day, forced re-logins: "
            << eval::fmt(usability.deauths_per_day_mean, 3)
            << "/day, cost: "
            << eval::fmt(usability.cost_per_day_seconds, 1) << " s/day\n"
            << "vulnerable time: "
            << eval::fmt(eval::vulnerable_time_minutes(
                             security, experiment.recording),
                         1)
            << " min (time-out baseline: "
            << eval::fmt(eval::vulnerable_time_minutes_timeout(
                             experiment.recording, config.timeout),
                         1)
            << " min)\n";

  // --- Crash-safe online week ---------------------------------------
  // Everything above analysed the recording offline.  Now live the week
  // online under crash protection: train on the first two days, checkpoint
  // every two minutes, lose power at the end of day 3, restart from the
  // snapshot ring, and finish the week.
  if (setup.days >= 2) {
    eval::print_banner(std::cout, "Crash-safe online week");
    const sim::Recording& recording = experiment.recording;
    const auto ring_dir = std::filesystem::temp_directory_path() /
                          "fadewich_office_week_ring";
    std::filesystem::remove_all(ring_dir);

    core::SystemConfig system_config;
    system_config.tick_hz = recording.rate().hz();
    system_config.md = eval::default_md_config();
    persist::SupervisedConfig supervised;
    supervised.recovery.directory = ring_dir.string();
    supervised.checkpoint_period_ticks = 600;  // 2 min at 5 Hz

    const std::size_t training_days =
        std::min<std::size_t>(2, setup.days - 1);
    const Seconds training_duration =
        recording.day_length() * static_cast<double>(training_days);
    const std::size_t crash_day =
        std::max<std::size_t>(training_days, std::min<std::size_t>(
                                                 3, setup.days - 1));
    const Tick crash_tick = recording.rate().to_ticks_ceil(
        recording.day_length() * static_cast<double>(crash_day));
    const auto inputs = eval::derive_inputs(recording, 3);

    std::size_t actions = 0, deauths = 0, recovered_steps = 0;
    std::size_t next_input = 0;
    const auto drive = [&](persist::SupervisedSystem& live, Tick begin,
                           Tick end) {
      std::vector<double> row(recording.stream_count());
      for (Tick t = begin; t < end; ++t) {
        const Seconds now = recording.rate().to_seconds(t);
        if (live.training() && now >= training_duration) {
          live.finish_training();
        }
        while (next_input < inputs.size() &&
               inputs[next_input].time <= now) {
          live.record_input(inputs[next_input].workstation,
                            inputs[next_input].time);
          ++next_input;
        }
        for (std::size_t s = 0; s < row.size(); ++s) {
          row[s] = recording.rssi(s, t);
        }
        const auto result = live.step(row);
        if (result.recovered) ++recovered_steps;
        actions += result.inner.actions.size();
        for (const core::Action& action : result.inner.actions) {
          if (action.type == core::ActionType::kDeauthenticate) ++deauths;
        }
      }
    };

    Tick restored_tick = 0;
    {
      persist::SupervisedSystem live(recording.stream_count(), 3,
                                     system_config, supervised);
      drive(live, 0, crash_tick);
      std::cout << "day 1-" << crash_day << ": " << actions
                << " actions (" << deauths << " deauthentications), "
                << live.checkpoints_written() << " checkpoints written\n";
      std::cout << "-- power cut at the end of day " << crash_day
                << " (tick " << crash_tick << ") --\n";
      // `live` goes out of scope: the process state is gone; only the
      // snapshot ring under ring_dir survives.
    }
    {
      persist::SupervisedSystem reborn(recording.stream_count(), 3,
                                       system_config, supervised);
      const persist::RecoveryReport& report = reborn.recovery_report();
      restored_tick = static_cast<Tick>(reborn.system().export_state().tick);
      std::cout << "restart: "
                << (reborn.degraded_start()
                        ? "cold start (no usable snapshot)"
                        : "recovered " + report.recovered_path)
                << "\n  resumed at tick " << restored_tick << " ("
                << crash_tick - restored_tick << " ticks lost), "
                << report.rejected.size() << " snapshot(s) rejected\n";
      // Re-deliver only inputs the snapshot has not yet consumed.
      const Seconds restored_time =
          restored_tick > 0
              ? recording.rate().to_seconds(restored_tick - 1)
              : -1.0;
      next_input = 0;
      while (next_input < inputs.size() &&
             inputs[next_input].time <= restored_time) {
        ++next_input;
      }
      drive(reborn, restored_tick, recording.tick_count());
      std::cout << "week finished: " << actions << " actions total ("
                << deauths << " deauthentications), " << recovered_steps
                << " in-flight restarts\n";
      std::cout << "watchdog: module 'pipeline' "
                << (reborn.retired() ? "degraded" : "healthy") << ", "
                << reborn.restarts() << " restart(s)\n";

      // End-of-day observability scrape: the same unified document a
      // monitoring agent would pull, reduced to the operator's two
      // questions — how fast are we locking screens, and what did the
      // reporting path lose?  Every count in it is the reborn pipeline's
      // own; the offline analysis and the pre-crash system keep theirs.
      eval::print_banner(std::cout, "End-of-day scrape");
      const obs::ScrapeReport scrape = reborn.scrape();
      if (const obs::HistogramSample* latency =
              scrape.metrics.find_histogram(
                  "fadewich_ctl_deauth_latency_seconds")) {
        std::cout << "deauth latency: p50="
                  << eval::fmt(latency->percentile(0.50), 1) << " s, p95="
                  << eval::fmt(latency->percentile(0.95), 1) << " s, p99="
                  << eval::fmt(latency->percentile(0.99), 1) << " s ("
                  << latency->count << " Rule-1 deauthentications)\n";
      }
      const auto field = [&scrape](const char* block, const char* name) {
        std::uint64_t value = 0;
        for (const auto& [key, v] : scrape.find_block(block)->fields) {
          if (key == name) value = static_cast<std::uint64_t>(v);
        }
        return value;
      };
      std::cout << "movement windows closed: "
                << field("md", "windows_closed")
                << ", degraded ticks: " << field("md", "degraded_ticks")
                << "\n";
      std::cout << "fault counters: duplicates="
                << field("station", "duplicates")
                << " late=" << field("station", "late_reports")
                << " evictions=" << field("station", "evictions")
                << " imputed_cells=" << field("station", "imputed_cells")
                << "\n";
      std::cout << "health blocks in the scrape:";
      for (const obs::HealthBlock& block : scrape.health) {
        std::cout << " " << block.name;
      }
      std::cout << "\n";
    }
    std::filesystem::remove_all(ring_dir);
  }
  return 0;
}
