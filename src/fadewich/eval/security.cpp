#include "fadewich/eval/security.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "fadewich/common/error.hpp"
#include "fadewich/core/radio_environment.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/sample_extraction.hpp"
#include "fadewich/ml/cross_validation.hpp"
#include "fadewich/ml/multiclass_svm.hpp"

namespace fadewich::eval {

SecurityResult evaluate_security(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config) {
  SecurityResult result;

  // 1. MD over the whole monitored period.
  const MdRun md = run_md(recording, sensors, md_config);
  const auto windows =
      filter_by_duration(md.windows, recording.rate(), config.t_delta);
  result.matches = match_windows(windows, recording.events(),
                                 recording.rate(), config.match);

  // 2. TP dataset with ground-truth labels.
  const ml::Dataset data = build_dataset(recording, sensors, result.matches,
                                         config.t_delta, config.features);

  // 3. Stratified k-fold predictions for every TP sample; the folds
  // train concurrently on the shared pool.
  std::vector<int> fold_prediction(data.size(), core::kLabelEntered);
  if (data.size() >= config.folds && data.max_label_plus_one() >= 2) {
    Rng rng(config.seed);
    const auto folds =
        ml::stratified_k_fold(data.labels, config.folds, rng);
    const auto cv = ml::cross_validate(data, folds, config.svm);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (cv.predictions[i] >= 0) fold_prediction[i] = cv.predictions[i];
    }
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (fold_prediction[i] == data.labels[i]) ++correct;
    }
    result.re_accuracy =
        static_cast<double>(correct) / static_cast<double>(data.size());
  }

  // 4. Full-data model for windows outside the TP set (false positives).
  std::optional<ml::MulticlassSvm> full_model;
  if (!data.empty()) {
    full_model.emplace(config.svm);
    full_model->train(data);
  }

  // 5. Per-window decisions.
  std::map<Tick, std::size_t> tp_by_begin;  // window begin -> sample index
  for (std::size_t i = 0; i < result.matches.true_positives.size(); ++i) {
    tp_by_begin[result.matches.true_positives[i].window.begin] = i;
  }
  for (const auto& window : windows) {
    WindowDecision decision;
    decision.window = window;
    decision.decision_time =
        recording.rate().to_seconds(window.begin) + config.t_delta;
    decision.window_end = recording.rate().to_seconds(window.end);
    const auto tp_it = tp_by_begin.find(window.begin);
    if (tp_it != tp_by_begin.end()) {
      decision.is_true_positive = true;
      decision.event_index =
          result.matches.true_positives[tp_it->second].event_index;
      decision.predicted_label = fold_prediction[tp_it->second];
    } else if (full_model) {
      const auto samples =
          window_samples(recording, sensors, window, config.t_delta);
      decision.predicted_label = full_model->predict(
          core::extract_features(samples, config.features));
    }
    result.decisions.push_back(decision);
  }

  // 6. Decision-tree outcome for every leave event.
  std::map<std::size_t, std::size_t> tp_sample_of_event;
  for (std::size_t i = 0; i < result.matches.true_positives.size(); ++i) {
    tp_sample_of_event[result.matches.true_positives[i].event_index] = i;
  }
  for (std::size_t e = 0; e < recording.events().size(); ++e) {
    const sim::GroundTruthEvent& event = recording.events()[e];
    if (event.kind != sim::EventKind::kLeave) continue;
    LeaveOutcome outcome;
    outcome.event_index = e;
    const auto tp_it = tp_sample_of_event.find(e);
    if (tp_it == tp_sample_of_event.end()) {
      outcome.outcome = DeauthCase::kMissed;
      outcome.delay = config.timeout;
    } else {
      const std::size_t sample = tp_it->second;
      const bool correct = fold_prediction[sample] == data.labels[sample];
      if (correct) {
        outcome.outcome = DeauthCase::kCorrect;
        const Seconds t1 = recording.rate().to_seconds(
            result.matches.true_positives[sample].window.begin);
        outcome.delay = std::max(
            0.0, t1 + config.t_delta - event.proximity_exit);
      } else {
        outcome.outcome = DeauthCase::kMisclassified;
        // Worst case: the last input coincided with the departure, so
        // the screensaver lock fires tID + tss later.
        outcome.delay = config.t_id + config.t_ss;
      }
    }
    result.outcomes.push_back(outcome);
  }
  return result;
}

OutcomeTally tally_outcomes(std::span<const LeaveOutcome> outcomes) {
  OutcomeTally tally;
  tally.leave_events = outcomes.size();
  if (outcomes.empty()) return tally;
  std::vector<double> delays;
  delays.reserve(outcomes.size());
  double sum = 0.0;
  for (const LeaveOutcome& o : outcomes) {
    switch (o.outcome) {
      case DeauthCase::kCorrect: ++tally.case_a; break;
      case DeauthCase::kMisclassified: ++tally.case_b; break;
      case DeauthCase::kMissed: ++tally.case_c; break;
    }
    delays.push_back(o.delay);
    sum += o.delay;
  }
  tally.mean_delay = sum / static_cast<double>(delays.size());
  std::sort(delays.begin(), delays.end());
  const auto idx = static_cast<std::size_t>(std::ceil(
                       0.9 * static_cast<double>(delays.size()))) -
                   1;
  tally.p90_delay = delays[std::min(idx, delays.size() - 1)];
  return tally;
}

std::vector<double> deauth_proportion_series(
    const std::vector<LeaveOutcome>& outcomes,
    const std::vector<Seconds>& grid) {
  FADEWICH_EXPECTS(!outcomes.empty());
  std::vector<double> out;
  out.reserve(grid.size());
  for (Seconds x : grid) {
    std::size_t done = 0;
    for (const auto& o : outcomes) {
      if (o.delay <= x) ++done;
    }
    out.push_back(100.0 * static_cast<double>(done) /
                  static_cast<double>(outcomes.size()));
  }
  return out;
}

}  // namespace fadewich::eval
