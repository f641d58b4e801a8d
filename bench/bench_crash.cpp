// Crash-recovery trajectory: kill the online pipeline at scheduled
// points, resurrect it from the snapshot ring, and measure what the
// crash cost — recovery wall time vs checkpoint period, and decision
// divergence (alert jitter and, critically, deauthentications) vs crash
// point.  Writes a machine-readable BENCH_crash.json so successive PRs
// can regress against the recovery curves.
//
//   ./bench_crash [output.json]     (default: BENCH_crash.json)
//
// FADEWICH_BENCH_FAST=1 shrinks the underlying experiment as everywhere
// else.  Deauth decisions must never diverge past the re-warm window;
// the json records the re-warm bound so readers can audit the claim.
#include <filesystem>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "fadewich/eval/crash_replay.hpp"
#include "fadewich/exec/thread_pool.hpp"

using namespace fadewich;

namespace {

struct CrashRun {
  double crash_fraction = 0.0;  // position in the recording, 0..1
  Tick checkpoint_period = 0;
  eval::CrashReplayResult result;
  eval::DivergenceResult divergence;
  Seconds rewarm = 0.0;
  std::size_t case_a = 0, case_b = 0, case_c = 0;
  std::size_t outcome_mismatches = 0;  // vs the reference run, all events
};

struct CaseCounts {
  std::size_t a = 0, b = 0, c = 0;
};

CaseCounts count_cases(const std::vector<eval::DeauthCase>& outcomes) {
  CaseCounts counts;
  for (const eval::DeauthCase outcome : outcomes) {
    switch (outcome) {
      case eval::DeauthCase::kCorrect: ++counts.a; break;
      case eval::DeauthCase::kMisclassified: ++counts.b; break;
      case eval::DeauthCase::kMissed: ++counts.c; break;
    }
  }
  return counts;
}

void write_json(const std::string& path, const sim::Recording& recording,
                const CaseCounts& reference_cases,
                std::size_t reference_actions,
                const std::vector<CrashRun>& runs) {
  bench::JsonReport json(path, "fadewich-bench-crash/2",
                         exec::default_thread_count());
  json.field("tick_hz", recording.rate().hz())
      .field("total_ticks", recording.tick_count())
      .begin_object("reference")
      .field("actions", reference_actions)
      .field("case_a", reference_cases.a)
      .field("case_b", reference_cases.b)
      .field("case_c", reference_cases.c)
      .end()
      .begin_array("runs");
  for (const CrashRun& r : runs) {
    json.begin_object()
        .field("crash_fraction", r.crash_fraction)
        .field("crash_tick", r.result.crash_tick)
        .field("checkpoint_period_ticks", r.checkpoint_period)
        .field("restored_tick", r.result.restored_tick)
        .field("lost_ticks", r.result.crash_tick - r.result.restored_tick)
        .field("cold_start", r.result.cold_start)
        .field("snapshots_rejected", r.result.report.rejected.size())
        .field("recovery_wall_ms", r.result.recovery_wall_ms)
        .field("rewarm_bound_s", r.rewarm)
        .field("reference_actions_after_restore",
               r.divergence.reference_actions)
        .field("divergent_in_rewarm", r.divergence.divergent_in_rewarm)
        .field("divergent_after_rewarm", r.divergence.divergent_after_rewarm)
        .field("divergent_deauths_after_rewarm",
               r.divergence.divergent_deauths_after_rewarm)
        .field("reconverge_after_s", r.divergence.reconverge_after)
        .field("case_a", r.case_a)
        .field("case_b", r.case_b)
        .field("case_c", r.case_c)
        .field("outcome_mismatches", r.outcome_mismatches)
        .end();
  }
  json.end().close();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_crash.json");
  const eval::PaperExperiment experiment = bench::make_experiment();
  const sim::Recording& recording = experiment.recording;
  const std::size_t workstations = 3;

  // Training spans the first two days (one under FADEWICH_BENCH_FAST);
  // everything after is the online phase the crashes disrupt.
  const std::size_t training_days =
      recording.day_count() >= 3 ? 2 : recording.day_count() - 1;
  eval::OnlineRunConfig online;
  online.system.md = eval::default_md_config();
  online.training_duration =
      recording.day_length() * static_cast<double>(training_days);

  std::cerr << "[bench_crash] reference (uninterrupted) run...\n";
  const std::vector<eval::ActionRecord> reference =
      eval::run_online(recording, workstations, online);
  const CaseCounts reference_cases =
      count_cases(eval::leave_outcomes(recording, reference));
  std::cerr << "[bench_crash]   " << reference.size() << " actions, A="
            << reference_cases.a << " B=" << reference_cases.b
            << " C=" << reference_cases.c << "\n";

  const auto ring_dir =
      std::filesystem::temp_directory_path() / "fadewich_bench_crash";

  // Crash points span training, the online switch, and deep online time;
  // checkpoint periods sweep the durability/overhead trade-off.
  const std::vector<double> crash_fractions{0.15, 0.45, 0.70, 0.90};
  const std::vector<Tick> checkpoint_periods{300, 600, 1500};

  std::vector<CrashRun> runs;
  for (const Tick period : checkpoint_periods) {
    for (const double fraction : crash_fractions) {
      CrashRun run;
      run.crash_fraction = fraction;
      run.checkpoint_period = period;

      eval::CrashReplayConfig config;
      config.online = online;
      config.crash_tick = static_cast<Tick>(
          static_cast<double>(recording.tick_count()) * fraction);
      config.checkpoint_period = period;
      std::filesystem::remove_all(ring_dir);
      config.recovery.directory = ring_dir.string();
      config.recovery.backoff_ms = 0.0;

      std::cerr << "[bench_crash] crash at " << fraction * 100.0
                << "% (tick " << config.crash_tick << "), checkpoint every "
                << period << " ticks...\n";
      run.result = eval::run_with_crash(recording, workstations, config);
      run.rewarm = eval::rewarm_bound(config);
      run.divergence = eval::compare_actions(reference, run.result,
                                             recording.rate(), run.rewarm);

      const auto reference_outcomes = eval::leave_outcomes(recording, reference);
      const auto crashed_outcomes =
          eval::leave_outcomes(recording, run.result.actions);
      const CaseCounts cases = count_cases(crashed_outcomes);
      run.case_a = cases.a;
      run.case_b = cases.b;
      run.case_c = cases.c;
      for (std::size_t i = 0; i < crashed_outcomes.size(); ++i) {
        if (crashed_outcomes[i] != reference_outcomes[i]) {
          ++run.outcome_mismatches;
        }
      }

      std::cerr << "[bench_crash]   restored tick "
                << run.result.restored_tick << " ("
                << (run.result.crash_tick - run.result.restored_tick)
                << " ticks lost), recovery "
                << eval::fmt(run.result.recovery_wall_ms, 2)
                << " ms, divergent after re-warm "
                << run.divergence.divergent_after_rewarm << " (deauths "
                << run.divergence.divergent_deauths_after_rewarm << ")\n";
      runs.push_back(std::move(run));
    }
  }
  std::filesystem::remove_all(ring_dir);

  eval::print_banner(std::cout,
                     "Crash recovery: restore cost and decision "
                     "divergence vs crash point");
  eval::TextTable table({"crash (%)", "ckpt (ticks)", "lost ticks",
                         "recovery (ms)", "div rewarm", "div after",
                         "div deauth", "case A/B/C"});
  for (const CrashRun& r : runs) {
    table.add_row(
        {eval::fmt(r.crash_fraction * 100.0, 0),
         std::to_string(r.checkpoint_period),
         std::to_string(r.result.crash_tick - r.result.restored_tick),
         eval::fmt(r.result.recovery_wall_ms, 2),
         std::to_string(r.divergence.divergent_in_rewarm),
         std::to_string(r.divergence.divergent_after_rewarm),
         std::to_string(r.divergence.divergent_deauths_after_rewarm),
         std::to_string(r.case_a) + "/" + std::to_string(r.case_b) + "/" +
             std::to_string(r.case_c)});
  }
  table.print(std::cout);
  std::cout << "\nreference run: A=" << reference_cases.a
            << " B=" << reference_cases.b << " C=" << reference_cases.c
            << "; deauth divergence after the re-warm window must be 0 in\n"
               "every row — alert-boundary jitter (div after) is the\n"
               "documented cost of dropping MD's sliding windows from the\n"
               "snapshot\n";

  bool deauth_diverged = false;
  for (const CrashRun& r : runs) {
    if (r.divergence.divergent_deauths_after_rewarm != 0) {
      deauth_diverged = true;
    }
  }
  write_json(path, recording, reference_cases, reference.size(), runs);
  std::cerr << "[bench_crash] wrote " << path << "\n";
  if (deauth_diverged) {
    std::cerr << "[bench_crash] FAIL: deauth decisions diverged past the "
                 "re-warm window\n";
    return 1;
  }
  return 0;
}
