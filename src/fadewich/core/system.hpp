// FadewichSystem: the assembled online pipeline of Fig. 1 — KMA + MD +
// RE + controller + per-workstation session machines.
//
// Usage: feed one tick of RSSI samples per step() call and input events
// via record_input() (in chronological order).  The system starts in
// *training* mode: variation windows are auto-labeled from KMA idle times
// and accumulated; finish_training() fits RE and switches to the online
// phase, where Rule 1 deauthentications and Rule 2 alerts drive the
// session machines.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/core/auto_labeler.hpp"
#include "fadewich/core/controller.hpp"
#include "fadewich/core/kma.hpp"
#include "fadewich/core/movement_detector.hpp"
#include "fadewich/core/radio_environment.hpp"
#include "fadewich/core/stream_history.hpp"
#include "fadewich/core/workstation.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::common {
class ScratchArena;
}

namespace fadewich::core {

struct SystemConfig {
  double tick_hz = 5.0;
  MovementDetectorConfig md;
  FeatureConfig features;
  ml::SvmConfig svm;
  ControllerConfig controller;
  AutoLabelerConfig labeler;
  Seconds t_id = 5.0;  // alert-state idle before screensaver
  Seconds t_ss = 3.0;  // screensaver grace before lock
};

/// Everything a FadewichSystem has learned or accumulated that must
/// survive a process death: the tick clock, phase, MD's profile, the
/// trained classifier, the controller FSM, KMA idle timers, session
/// states, and the auto-labeled training set.  Deliberately excluded:
/// the RSSI stream history and MD's sliding windows (stale after any
/// downtime; they re-warm in `md.std_window` seconds) and deferred
/// auto-label attempts (at most one entry-confirmation horizon of
/// training samples is lost).
struct SystemState {
  std::uint64_t tick = 0;
  bool training = true;
  MovementDetectorState md;
  ControlState controller = ControlState::kQuiet;
  std::vector<Seconds> kma_last_input;
  std::vector<SessionSnapshot> sessions;
  bool re_trained = false;
  ml::MulticlassSvmState re;  // valid only when re_trained
  ml::Dataset training_samples;
};

class FadewichSystem {
 public:
  FadewichSystem(std::size_t stream_count, std::size_t workstation_count,
                 SystemConfig config = {});

  Seconds now() const { return rate_.to_seconds(tick_); }
  Tick tick() const { return tick_; }
  const TickRate& rate() const { return rate_; }

  /// Record an input event (must not be later than the next step's time).
  void record_input(std::size_t workstation, Seconds t);

  struct StepResult {
    MdState md_state = MdState::kCalibrating;
    /// This step's controller actions, in a buffer the system owns:
    /// valid until the next step.
    std::span<const Action> actions;
    /// RE label when Rule 1 fired on this step.
    std::optional<int> classification;
  };

  /// Consume one tick of RSSI samples.
  StepResult step(std::span<const double> rssi_row);

  /// Consume one tick with a per-stream validity mask (false = the cell
  /// was imputed by the central station after report loss).  Stale
  /// streams are excluded from MD's Σstddev and from RE features; when
  /// too few streams are live, classification is unavailable and the
  /// controller falls back to Rule-2 alerting.  An empty mask means all
  /// valid and is bit-identical to step(rssi_row).
  StepResult step(std::span<const double> rssi_row,
                  std::span<const std::uint8_t> valid);

  // --- Training phase -----------------------------------------------
  bool training() const { return training_; }
  std::size_t training_sample_count() const { return samples_.size(); }
  const ml::Dataset& training_samples() const { return samples_; }

  /// Fit RE on the auto-labeled samples and enter the online phase.
  /// Returns false (and stays in training) if fewer than two classes
  /// have been collected.
  bool finish_training();

  /// Fit RE on externally labeled samples (e.g. supervisor ground truth)
  /// and enter the online phase.
  void train_with(const ml::Dataset& samples);

  // --- Persistence --------------------------------------------------
  /// Export the durable state (see SystemState for what is included).
  SystemState export_state() const;

  /// Restore a persisted state into this system.  The system must have
  /// been constructed with the same stream/workstation counts and
  /// configuration as the one that exported the state; mismatches throw
  /// fadewich::Error and leave this system unchanged (strong guarantee).
  /// After the call the pipeline resumes at the saved tick with empty
  /// stream history, so detection re-warms for `md.std_window` seconds
  /// before windows can open again.
  void import_state(const SystemState& state);

  // --- Introspection ------------------------------------------------
  /// Features of the open variation window's first t_delta, exactly as
  /// Rule 1 classifies them (stale streams zeroed).  Requires an open
  /// window (md().current_window()).
  std::vector<double> current_window_features() const;

  const MovementDetector& md() const { return md_; }
  const KeyboardMouseActivity& kma() const { return kma_; }
  const RadioEnvironment& re() const { return re_; }
  const Controller& controller() const { return controller_; }
  const WorkstationSession& session(std::size_t workstation) const;

  /// Append this pipeline's own counts to `report`: the md, controller
  /// and re blocks, and the deauth-latency, window-length and step-time
  /// histograms.  Step wall time is sampled every 64th tick while
  /// obs::enabled().
  void scrape_into(obs::ScrapeReport& report) const;

 private:
  // The live window's t_delta block and per-stream validity fractions,
  // read from both history rings into arena scratch.
  struct WindowScratch {
    WindowBlock block;
    std::span<const double> validity;
  };
  WindowScratch read_current_window(common::ScratchArena& arena) const;
  std::optional<int> classify_current_window();
  void collect_training_sample();
  void resolve_pending_entries();

  SystemConfig config_;
  TickRate rate_;

  KeyboardMouseActivity kma_;
  MovementDetector md_;
  RadioEnvironment re_;
  Controller controller_;
  AutoLabeler labeler_;
  StreamHistory history_;
  StreamHistory validity_history_;  // 1.0 fresh / 0.0 imputed, per cell
  std::vector<WorkstationSession> sessions_;

  Tick tick_ = 0;
  std::vector<double> validity_row_;  // scratch, reused every step
  std::vector<Action> actions_;       // the last step's, reused
  obs::HistogramSample step_seconds_{obs::default_bucket_bounds()};
  bool training_ = true;
  ml::Dataset samples_;

  struct PendingSample {
    Seconds decision_time = 0.0;
    std::vector<double> features;
    AutoLabeler::Attempt attempt;
  };
  std::deque<PendingSample> pending_samples_;
};

}  // namespace fadewich::core
