// Fig. 8: RE classification accuracy vs number of training samples, for
// {3, 5, 7, 9} sensors — stratified 5-fold cross validation repeated 10
// times, error bars as 95% confidence intervals (the paper's exact
// protocol, Section VII-B).
//
// Also runs the DESIGN.md ablation: features from the window's first
// t_delta seconds (the paper's choice) vs the full variation window —
// the initial segment is the discriminative part because exit paths
// converge at the door.
#include <algorithm>

#include "bench_util.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/ml/cross_validation.hpp"
#include "fadewich/ml/metrics.hpp"
#include "fadewich/ml/multiclass_svm.hpp"

using namespace fadewich;

namespace {

/// Cross-validated accuracy using at most `train_size` samples per fold,
/// repeated over `repeats` random splits.
ml::MeanCi accuracy_at_size(const ml::Dataset& data, std::size_t train_size,
                            std::size_t repeats, std::uint64_t seed) {
  std::vector<double> accuracies;
  for (std::size_t r = 0; r < repeats; ++r) {
    Rng rng(seed + r);
    const auto folds = ml::stratified_k_fold(data.labels, 5, rng);
    std::size_t correct = 0;
    std::size_t tested = 0;
    for (const auto& fold : folds) {
      auto train_indices = fold.train_indices;
      std::shuffle(train_indices.begin(), train_indices.end(),
                   rng.engine());
      if (train_indices.size() > train_size) {
        train_indices.resize(train_size);
      }
      const auto subset = data.subset(train_indices);
      // A truncated training set may hold one class only; skip the fold
      // (matches the figure's early-x noise).
      if (subset.max_label_plus_one() < 2) continue;
      bool multi = false;
      for (int y : subset.labels) {
        if (y != subset.labels.front()) multi = true;
      }
      if (!multi) continue;
      ml::MulticlassSvm svm;
      svm.train(subset);
      for (std::size_t i : fold.test_indices) {
        correct += svm.predict(data.features[i]) == data.labels[i] ? 1 : 0;
        ++tested;
      }
    }
    if (tested > 0) {
      accuracies.push_back(static_cast<double>(correct) /
                           static_cast<double>(tested));
    }
  }
  return ml::mean_with_ci95(accuracies);
}

}  // namespace

int main() {
  const eval::PaperExperiment experiment = bench::make_experiment();
  const std::vector<std::size_t> sensor_counts{3, 5, 7, 9};
  constexpr double kTDelta = 4.5;

  std::vector<ml::Dataset> datasets;
  for (std::size_t n : sensor_counts) {
    const auto analysis = bench::analyze_md(experiment, n, kTDelta);
    datasets.push_back(eval::build_dataset(
        experiment.recording, eval::sensor_subset(n), analysis.matches,
        kTDelta, core::FeatureConfig{}));
  }

  eval::print_banner(
      std::cout,
      "Fig. 8: RE accuracy vs training samples (mean +- 95% CI)");
  eval::TextTable table({"train samples", "3 sensors", "5 sensors",
                         "7 sensors", "9 sensors"});
  for (std::size_t size = 10; size <= 100; size += 10) {
    std::vector<std::string> row{std::to_string(size)};
    for (std::size_t i = 0; i < sensor_counts.size(); ++i) {
      if (size > datasets[i].size()) {
        row.push_back("-");  // fewer TPs available (Table III)
        continue;
      }
      const auto ci = accuracy_at_size(datasets[i], size, 10, 1234);
      row.push_back(eval::fmt(ci.mean, 3) + " +- " +
                    eval::fmt(ci.ci95_half_width, 3));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\npaper shape: > 0.90 after ~40 samples with 7+ sensors;\n"
               "steeper learning curves with more sensors\n";

  // Ablation: first-t_delta window (paper) vs the full variation window.
  std::cout << "\nAblation: feature window = [t1, t1+t_delta] vs "
               "[t1, t2] (9 sensors)\n";
  const auto analysis = bench::analyze_md(experiment, 9, kTDelta);
  ml::Dataset full_window;
  auto& arena = common::ScratchArena::local();
  for (const auto& tp : analysis.matches.true_positives) {
    const Seconds duration =
        experiment.recording.rate().to_seconds(tp.window.end -
                                               tp.window.begin + 1);
    const auto frame = arena.frame();
    const core::WindowBlock block =
        eval::window_samples(experiment.recording, eval::sensor_subset(9),
                             tp.window, duration, arena);
    std::vector<double> sample(block.streams * core::kFeaturesPerStream);
    core::extract_features(block, core::FeatureConfig{}, sample);
    full_window.add(std::move(sample),
                    eval::event_label(
                        experiment.recording.events()[tp.event_index]));
  }
  const auto initial_ci =
      accuracy_at_size(datasets.back(), 100, 10, 77);
  const auto full_ci = accuracy_at_size(full_window, 100, 10, 77);
  eval::TextTable ablation({"feature window", "accuracy"});
  ablation.add_row({"[t1, t1 + t_delta] (paper)",
                    eval::fmt(initial_ci.mean, 3)});
  ablation.add_row({"[t1, t2] full window", eval::fmt(full_ci.mean, 3)});
  ablation.print(std::cout);
  return 0;
}
