// Fault-tolerance trajectory: security outcome (case A/B/C mix and
// deauthentication delays) as the sensor network degrades — report loss
// from 0 to 30% and up to two sensors fully offline.  Writes a
// machine-readable BENCH_faults.json so successive PRs can regress
// against the degradation curves.
//
//   ./bench_faults [output.json]     (default: BENCH_faults.json)
//
// FADEWICH_BENCH_FAST=1 shrinks the underlying experiment as everywhere
// else.  The (loss = 0, dropped = 0) row replays the recording through
// the central station with faults disabled and must match the fault-free
// evaluation — it is the anchor the other rows are compared against.
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "fadewich/eval/fault_sweep.hpp"
#include "fadewich/exec/thread_pool.hpp"

using namespace fadewich;

namespace {

void write_json(const std::string& path,
                const std::vector<eval::FaultScenarioResult>& results) {
  bench::JsonReport json(path, "fadewich-bench-faults/2",
                         exec::default_thread_count());
  json.begin_array("scenarios");
  for (const eval::FaultScenarioResult& r : results) {
    const auto pct = [&](std::size_t n) {
      return r.leave_events == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(n) /
                       static_cast<double>(r.leave_events);
    };
    json.begin_object()
        .field("loss_rate", r.scenario.loss_rate)
        .field("dropped_sensors", r.scenario.dropped_sensors)
        .field("leave_events", r.leave_events)
        .field("case_a", r.case_a)
        .field("case_b", r.case_b)
        .field("case_c", r.case_c)
        .field("case_a_pct", pct(r.case_a))
        .field("case_b_pct", pct(r.case_b))
        .field("case_c_pct", pct(r.case_c))
        .field("mean_deauth_delay_s", r.mean_delay)
        .field("p90_deauth_delay_s", r.p90_delay)
        .field("re_accuracy", r.re_accuracy)
        .field("reports_offered", r.fault_counters.offered)
        .field("reports_dropped", r.fault_counters.dropped)
        .field("reports_outage_dropped", r.fault_counters.outage_dropped)
        .field("station_incomplete_releases", r.health.incomplete_releases)
        .field("station_imputed_cells", r.health.imputed_cells)
        .field("station_late_reports", r.health.late_reports)
        .field("station_evictions", r.health.evictions)
        .end();
  }
  json.end().close();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("BENCH_faults.json");
  const eval::PaperExperiment experiment = bench::make_experiment();
  const std::vector<std::size_t> sensors =
      eval::sensor_subset(experiment.recording.sensor_count());

  const std::vector<double> loss_rates{0.0, 0.05, 0.10, 0.20, 0.30};
  const std::vector<std::size_t> dropped_counts{0, 1, 2};

  std::vector<eval::FaultScenarioResult> results;
  for (const std::size_t dropped : dropped_counts) {
    for (const double loss : loss_rates) {
      eval::FaultScenario scenario;
      scenario.loss_rate = loss;
      scenario.dropped_sensors = dropped;
      std::cerr << "[bench_faults] loss " << loss * 100.0 << "%, "
                << dropped << " sensor(s) down...\n";
      results.push_back(eval::evaluate_fault_scenario(
          experiment.recording, sensors, eval::default_md_config(),
          eval::SecurityConfig{}, scenario));
      const eval::FaultScenarioResult& r = results.back();
      std::cerr << "[bench_faults]   A=" << r.case_a << " B=" << r.case_b
                << " C=" << r.case_c << " of " << r.leave_events
                << ", mean delay " << eval::fmt(r.mean_delay, 2)
                << " s, imputed cells " << r.health.imputed_cells << "\n";
    }
  }

  eval::print_banner(std::cout,
                     "Fault tolerance: deauth outcome vs report loss "
                     "and sensor dropout");
  eval::TextTable table({"loss (%)", "sensors down", "case A", "case B",
                         "case C", "mean delay (s)", "p90 delay (s)",
                         "RE acc"});
  for (const eval::FaultScenarioResult& r : results) {
    table.add_row({eval::fmt(r.scenario.loss_rate * 100.0, 0),
                   std::to_string(r.scenario.dropped_sensors),
                   std::to_string(r.case_a), std::to_string(r.case_b),
                   std::to_string(r.case_c), eval::fmt(r.mean_delay, 2),
                   eval::fmt(r.p90_delay, 2),
                   eval::fmt(r.re_accuracy, 3)});
  }
  table.print(std::cout);
  std::cout << "\nthe (0%, 0 down) row is the fault-free anchor; rising\n"
               "loss shifts events from case A toward cases B/C and\n"
               "stretches the delay tail toward the screensaver lock\n";

  write_json(path, results);
  std::cerr << "[bench_faults] wrote " << path << "\n";
  return 0;
}
