// Security evaluation (Sections V-B and VII-C).
//
// Runs the full offline pipeline the paper uses: MD over the whole
// monitored period -> windows >= t_delta -> TP/FP/FN against ground truth
// -> RE trained/tested in stratified k-fold over the TP samples -> each
// leave event assigned a decision-tree outcome:
//
//   case A (TP, correct classification)    deauth at t1 + t_delta
//   case B (TP, misclassified)             deauth at t + tID + tss
//   case C (FN)                            deauth at t + T (timeout)
//
// Delays are reported relative to the instant the user left the
// workstation's vicinity (the event's proximity_exit).  Case B/C delays
// use the paper's worst-case assumption that the last input coincides
// with the departure.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/core/features.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/eval/window_matching.hpp"
#include "fadewich/ml/svm.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

struct SecurityConfig {
  Seconds t_delta = 4.5;
  Seconds t_id = 5.0;
  Seconds t_ss = 3.0;
  Seconds timeout = 300.0;  // baseline deauthentication time-out T
  std::size_t folds = 5;
  std::uint64_t seed = 7;
  MatchConfig match;
  core::FeatureConfig features;
  ml::SvmConfig svm;
};

enum class DeauthCase {
  kCorrect,        // A
  kMisclassified,  // B
  kMissed,         // C
};

struct LeaveOutcome {
  std::size_t event_index = 0;
  DeauthCase outcome = DeauthCase::kMissed;
  Seconds delay = 0.0;  // deauth delay after leaving the vicinity

  bool operator==(const LeaveOutcome&) const = default;
};

/// Case counts and deauth-delay summary over a set of leave outcomes.
struct OutcomeTally {
  std::size_t leave_events = 0;
  std::size_t case_a = 0;  // deauth via correct classification
  std::size_t case_b = 0;  // misclassified -> screensaver lock
  std::size_t case_c = 0;  // missed -> baseline timeout
  Seconds mean_delay = 0.0;  // mean deauth delay; 0 without leaves
  Seconds p90_delay = 0.0;   // sorted delays[ceil(0.9 n) - 1]; 0 without
};

OutcomeTally tally_outcomes(std::span<const LeaveOutcome> outcomes);

/// One decision per variation window >= t_delta (TPs carry their k-fold
/// test prediction; FPs are classified by a model trained on all TPs).
struct WindowDecision {
  core::VariationWindow window;
  Seconds decision_time = 0.0;  // t1 + t_delta, seconds
  Seconds window_end = 0.0;     // t2, seconds
  int predicted_label = 0;
  bool is_true_positive = false;
  std::size_t event_index = 0;  // valid when is_true_positive
};

struct SecurityResult {
  MatchResult matches;
  std::vector<LeaveOutcome> outcomes;        // one per kLeave event
  std::vector<WindowDecision> decisions;     // all windows >= t_delta
  double re_accuracy = 0.0;  // k-fold accuracy over TP samples
};

SecurityResult evaluate_security(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config);

/// Fig. 9 series: percentage of leave events deauthenticated within each
/// elapsed time in `grid` (seconds after leaving the vicinity).
std::vector<double> deauth_proportion_series(
    const std::vector<LeaveOutcome>& outcomes,
    const std::vector<Seconds>& grid);

}  // namespace fadewich::eval
