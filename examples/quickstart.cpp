// Quickstart: the smallest end-to-end FADEWICH run.
//
// Builds the paper's office, simulates a short working session, trains
// the system on the first part of the data (fully automatic labeling —
// no supervisor), then runs the online phase and prints every decision
// as it happens.
//
//   $ ./quickstart
#include <iostream>
#include <numeric>
#include <vector>

#include "fadewich/core/system.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/sim/input_activity.hpp"

using namespace fadewich;

int main() {
  // 1. A simulated office: Fig. 6's 6 m x 3 m room, nine wall sensors,
  //    three workstations.  Three short "days": two for training, one
  //    online.
  eval::PaperSetup setup = eval::small_setup(/*days=*/3,
                                             /*day_length=*/40.0 * 60.0);
  setup.day.min_breaks = 2;
  setup.day.max_breaks = 3;
  std::cout << "Simulating 3 x 40 min of office activity...\n";
  const eval::PaperExperiment experiment =
      eval::make_paper_experiment(setup);
  const sim::Recording& recording = experiment.recording;
  std::cout << "  " << recording.events().size()
            << " ground-truth movements recorded\n\n";

  // 2. Keyboard/mouse input drawn from the seated intervals with the
  //    paper's activity model (input in 78% of 5 s intervals).
  struct Input {
    Seconds time;
    std::size_t workstation;
  };
  std::vector<Input> inputs;
  Rng rng(1);
  for (std::size_t w = 0; w < 3; ++w) {
    sim::InputActivitySimulator activity({}, rng.split(w));
    for (Seconds t : activity.generate(
             recording.total_duration(),
             [&](Seconds t) { return recording.seated_at(w, t); })) {
      inputs.push_back({t, w});
    }
    for (const Interval& iv : recording.seated_intervals()[w]) {
      inputs.push_back({iv.begin, w});  // sitting down counts as input
    }
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const Input& a, const Input& b) { return a.time < b.time; });

  // 3. The FADEWICH system: KMA + MD + RE + controller.
  core::SystemConfig config;
  config.tick_hz = recording.rate().hz();
  config.md = eval::default_md_config();
  core::FadewichSystem system(recording.stream_count(), 3, config);

  std::vector<std::size_t> streams(recording.stream_count());
  std::iota(streams.begin(), streams.end(), std::size_t{0});
  std::vector<double> row(streams.size());
  std::size_t next_input = 0;
  bool online = false;

  for (Tick t = 0; t < recording.tick_count(); ++t) {
    recording.copy_rows(streams, t, t, row);
    const Seconds now = recording.rate().to_seconds(t);

    if (!online && now >= 2.0 * recording.day_length()) {
      std::cout << "Training done: "
                << system.training_sample_count()
                << " auto-labeled samples collected.\n";
      if (!system.finish_training()) {
        std::cerr << "not enough training data collected\n";
        return 1;
      }
      std::cout << "Going online.\n\n";
      online = true;
    }

    while (next_input < inputs.size() &&
           inputs[next_input].time <= now) {
      system.record_input(inputs[next_input].workstation,
                          inputs[next_input].time);
      ++next_input;
    }

    const auto result = system.step(row);
    if (online && result.classification) {
      std::cout << "[t=" << static_cast<int>(now) << "s] movement -> ";
      if (core::is_leave_label(*result.classification)) {
        std::cout << "user left w"
                  << core::workstation_of_label(*result.classification) + 1;
      } else {
        std::cout << "someone entered the office";
      }
      std::cout << "\n";
    }
    for (const auto& action : result.actions) {
      if (action.type == core::ActionType::kDeauthenticate) {
        std::cout << "[t=" << static_cast<int>(now)
                  << "s]   DEAUTHENTICATED w" << action.workstation + 1
                  << "\n";
      }
    }
  }

  std::cout << "\nDone. Session states at the end of the day:\n";
  for (std::size_t w = 0; w < 3; ++w) {
    const auto state = system.session(w).state();
    std::cout << "  w" << w + 1 << ": "
              << (state == core::SessionState::kLocked ? "locked"
                                                       : "active-ish")
              << " (" << system.session(w).transition_count()
              << " transitions)\n";
  }
  return 0;
}
