// Differential test of the two readers of RE's feature window: the
// offline evaluation behind Figs. 8-10 (eval::window_samples over a
// sim::Recording) and the deployed FadewichSystem's Rule-1 tick (the
// same window read from its stream history).  One RE model, trained on
// build_dataset, is given to a system that is then driven over the same
// recording.  Every Rule-1 classification must see the offline features
// bit for bit and give the full-data model's label, and the online and
// offline window sets may differ only by merge-gap-tail windows.
#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/core/system.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/eval/sample_extraction.hpp"
#include "fadewich/eval/window_matching.hpp"
#include "fadewich/ml/multiclass_svm.hpp"

namespace fadewich::eval {
namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(WindowParity, RuleOneClassifiesTheOfflineFeatureWindow) {
  const PaperExperiment experiment =
      make_paper_experiment(small_setup(5, 8.0 * 3600.0));
  const sim::Recording& recording = experiment.recording;
  const std::vector<std::size_t> sensors = sensor_subset(9);
  const core::MovementDetectorConfig md_config = default_md_config();
  const core::FeatureConfig features;
  const ml::SvmConfig svm;
  constexpr Seconds kTDelta = 4.5;

  // The offline path: every MD window, the ones the figures score
  // (span >= t_delta), and a full-data RE model on their TPs.
  const MdRun md = run_md(recording, sensors, md_config);
  const auto offline =
      filter_by_duration(md.windows, recording.rate(), kTDelta);
  const MatchResult matches =
      match_windows(offline, recording.events(), recording.rate());
  const ml::Dataset data =
      build_dataset(recording, sensors, matches, kTDelta, features);
  ASSERT_GE(data.max_label_plus_one(), 2);
  ml::MulticlassSvm full_model(svm);
  full_model.train(data);
  std::map<Tick, core::VariationWindow> md_by_begin;
  for (const core::VariationWindow& w : md.windows) md_by_begin[w.begin] = w;

  // The online path over the same rows.
  core::SystemConfig config;
  config.tick_hz = recording.rate().hz();
  config.md = md_config;
  config.features = features;
  config.svm = svm;
  config.controller.t_delta = kTDelta;
  config.labeler.t_delta = kTDelta;
  const std::vector<std::size_t> streams =
      recording.streams_for_sensors(sensors);
  core::FadewichSystem system(streams.size(),
                              experiment.plan.workstation_count(), config);
  system.train_with(data);

  std::set<Tick> online;
  std::vector<double> row(streams.size());
  std::vector<double> want(data.feature_count());
  auto& arena = common::ScratchArena::local();
  for (Tick t = 0; t < recording.tick_count(); ++t) {
    recording.copy_rows(streams, t, t, row);
    const auto result = system.step(row);
    if (!result.classification) continue;
    const core::VariationWindow live = *system.md().current_window();
    ASSERT_GE(system.md().current_window_duration(), kTDelta);
    online.insert(live.begin);
    const auto frame = arena.frame();
    core::extract_features(
        window_samples(recording, sensors, live, kTDelta, arena), features,
        want);
    ASSERT_TRUE(same_bits(system.current_window_features(), want))
        << "window at tick " << live.begin;
    ASSERT_EQ(*result.classification, full_model.predict(want))
        << "window at tick " << live.begin;
  }

  // Every window the figures score was classified online.  The online
  // extras are merge-gap tails: the controller fires on the window's age
  // (>= t_delta while its last ticks may still be inside the merge gap),
  // and MD then closed it with an anomalous span < t_delta.
  std::set<Tick> scored;
  for (const core::VariationWindow& w : offline) {
    scored.insert(w.begin);
    EXPECT_TRUE(online.count(w.begin)) << "window at tick " << w.begin;
  }
  std::size_t tails = 0;
  for (const Tick begin : online) {
    if (scored.count(begin)) continue;
    ASSERT_TRUE(md_by_begin.count(begin)) << "window at tick " << begin;
    const core::VariationWindow& w = md_by_begin.at(begin);
    EXPECT_LT(recording.rate().to_seconds(w.end - w.begin + 1), kTDelta)
        << "window at tick " << begin;
    ++tails;
  }
  ASSERT_FALSE(offline.empty());
  std::cout << "Rule-1 classifications: " << online.size()
            << ", scored offline: " << offline.size()
            << ", merge-gap tails: " << tails << "\n";
}

}  // namespace
}  // namespace fadewich::eval
