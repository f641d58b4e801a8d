#include "fadewich/core/system.hpp"

#include <chrono>
#include <cmath>
#include <string>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::core {

namespace {

// Sampling keeps the steady_clock out of 63 of every 64 ticks; the step
// path is the tightest loop the system has, and the budget is < 2%.
constexpr Tick kLatencySampleStride = 64;

std::size_t history_capacity(const SystemConfig& config) {
  // Enough to re-read a feature window that started a little before the
  // detection crossed t_delta (merge gaps, rounding) plus safety margin.
  const Seconds span =
      config.controller.t_delta + config.md.merge_gap + 5.0;
  return static_cast<std::size_t>(std::ceil(span * config.tick_hz)) + 4;
}
}  // namespace

FadewichSystem::FadewichSystem(std::size_t stream_count,
                               std::size_t workstation_count,
                               SystemConfig config)
    : config_(config),
      rate_(config.tick_hz),
      kma_(workstation_count),
      md_(stream_count, config.tick_hz, config.md),
      re_(config.features, config.svm),
      controller_(config.controller, workstation_count),
      labeler_(config.labeler, workstation_count),
      history_(stream_count, history_capacity(config)),
      validity_history_(stream_count, history_capacity(config)) {
  FADEWICH_EXPECTS(stream_count >= 1);
  FADEWICH_EXPECTS(workstation_count >= 1);
  FADEWICH_EXPECTS(config.labeler.t_delta == config.controller.t_delta);
  sessions_.reserve(workstation_count);
  for (std::size_t w = 0; w < workstation_count; ++w) {
    sessions_.emplace_back(config.t_id, config.t_ss);
  }
}

void FadewichSystem::record_input(std::size_t workstation, Seconds t) {
  FADEWICH_EXPECTS(workstation < sessions_.size());
  kma_.record_input(workstation, t);
  sessions_[workstation].on_input(t);
}

FadewichSystem::WindowScratch FadewichSystem::read_current_window(
    common::ScratchArena& arena) const {
  const auto window = md_.current_window();
  FADEWICH_EXPECTS(window.has_value());
  const auto [begin, end] = feature_tick_range(
      rate_, config_.controller.t_delta, window->begin,
      history_.oldest_tick(), history_.ticks_stored() - 1);
  const auto rows = static_cast<std::size_t>(end - begin + 1);
  const std::size_t streams = history_.stream_count();
  const std::span<double> data = arena.get<double>(rows * streams);
  history_.copy_rows(begin, end, data);
  const std::span<double> validity = arena.get<double>(streams);
  validity_history_.sum_rows(begin, end, validity);
  for (double& v : validity) v /= static_cast<double>(rows);
  return {WindowBlock{data, rows, streams}, validity};
}

std::optional<int> FadewichSystem::classify_current_window() {
  if (!re_.trained()) return std::nullopt;
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const WindowScratch window = read_current_window(arena);
  return re_.classify_degraded(window.block, window.validity);
}

std::vector<double> FadewichSystem::current_window_features() const {
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const WindowScratch window = read_current_window(arena);
  std::vector<double> features(window.block.streams * kFeaturesPerStream);
  re_.features_from(window.block, window.validity, features);
  return features;
}

void FadewichSystem::collect_training_sample() {
  const Seconds decision_time = now();
  AutoLabeler::Attempt attempt = labeler_.attempt(kma_, decision_time);
  if (attempt.ambiguous) return;  // discarded, per the paper
  if (attempt.label) {
    samples_.add(current_window_features(), *attempt.label);
    return;
  }
  if (attempt.deferred()) {
    pending_samples_.push_back(
        {decision_time, current_window_features(), std::move(attempt)});
  }
}

void FadewichSystem::resolve_pending_entries() {
  const Seconds horizon = labeler_.config().entry_confirmation;
  while (!pending_samples_.empty() &&
         now() >= pending_samples_.front().decision_time + horizon) {
    PendingSample& pending = pending_samples_.front();
    const std::optional<int> label = labeler_.resolve(
        kma_, pending.decision_time, pending.attempt, now());
    if (label) {
      samples_.add(std::move(pending.features), *label);
    }
    pending_samples_.pop_front();
  }
}

FadewichSystem::StepResult FadewichSystem::step(
    std::span<const double> rssi_row) {
  return step(rssi_row, {});
}

FadewichSystem::StepResult FadewichSystem::step(
    std::span<const double> rssi_row,
    std::span<const std::uint8_t> valid) {
  FADEWICH_EXPECTS(valid.empty() || valid.size() == rssi_row.size());
  const bool timed =
      obs::enabled() && tick_ % kLatencySampleStride == 0;
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  struct LatencySample {
    bool timed;
    std::chrono::steady_clock::time_point started;
    obs::HistogramSample& histogram;
    ~LatencySample() {
      if (!timed) return;
      histogram.observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count());
    }
  } latency_sample{timed, started, step_seconds_};

  history_.push(rssi_row);
  if (valid.empty()) {
    validity_row_.assign(rssi_row.size(), 1.0);
  } else {
    validity_row_.resize(valid.size());
    for (std::size_t s = 0; s < valid.size(); ++s) {
      validity_row_[s] = valid[s] ? 1.0 : 0.0;
    }
  }
  validity_history_.push(validity_row_);
  StepResult result;
  result.md_state = md_.step(rssi_row, valid);
  ++tick_;
  const Seconds t = now();

  if (training_) {
    resolve_pending_entries();
    // Mirror the controller's Rule 1 moment: sample when the live window
    // reaches t_delta.  Use the controller FSM itself so training and
    // online phases trigger at identical instants.
    result.actions = controller_.step(
        t, md_.current_window_duration(), kma_, [&]() -> std::optional<int> {
          collect_training_sample();
          return std::nullopt;  // no RE yet: Rule 1 cannot fire
        });
    // Training phase never acts on workstations.
    result.actions.clear();
    return result;
  }

  result.actions = controller_.step(
      t, md_.current_window_duration(), kma_, [&]() {
        const std::optional<int> label = classify_current_window();
        result.classification = label;
        return label;
      });

  for (const Action& action : result.actions) {
    switch (action.type) {
      case ActionType::kDeauthenticate:
        sessions_[action.workstation].on_deauthenticate(action.time);
        break;
      case ActionType::kAlert:
        sessions_[action.workstation].on_alert(
            action.time, kma_.idle_time(action.workstation, action.time));
        break;
    }
  }
  for (std::size_t w = 0; w < sessions_.size(); ++w) {
    sessions_[w].tick(t, kma_.idle_time(w, t));
  }
  return result;
}

bool FadewichSystem::finish_training() {
  FADEWICH_EXPECTS(training_);
  if (samples_.empty()) return false;
  bool multiple_classes = false;
  for (int y : samples_.labels) {
    if (y != samples_.labels.front()) {
      multiple_classes = true;
      break;
    }
  }
  if (!multiple_classes) return false;
  re_.train(samples_);
  training_ = false;
  return true;
}

void FadewichSystem::train_with(const ml::Dataset& samples) {
  re_.train(samples);
  training_ = false;
}

SystemState FadewichSystem::export_state() const {
  SystemState state;
  state.tick = static_cast<std::uint64_t>(tick_);
  state.training = training_;
  state.md = md_.export_state();
  state.controller = controller_.state();
  state.kma_last_input = kma_.last_inputs();
  state.sessions.reserve(sessions_.size());
  for (const WorkstationSession& session : sessions_) {
    state.sessions.push_back(session.snapshot());
  }
  state.re_trained = re_.trained();
  if (state.re_trained) state.re = re_.export_classifier();
  state.training_samples = samples_;
  return state;
}

void FadewichSystem::import_state(const SystemState& state) {
  if (state.sessions.size() != sessions_.size()) {
    throw Error("system state has " +
                std::to_string(state.sessions.size()) +
                " sessions, deployment has " +
                std::to_string(sessions_.size()));
  }
  if (state.md.now != static_cast<Tick>(state.tick)) {
    throw Error("system state tick clock disagrees with MD clock");
  }
  if (state.training_samples.size() !=
      state.training_samples.labels.size()) {
    throw Error("system state training set is ragged");
  }
  // Restore the validating sub-modules into copies and commit only once
  // all of them accepted the state, so a throw leaves this system
  // unchanged: recovery treats any Error as "snapshot unusable" and
  // tries an older one on the same system.
  KeyboardMouseActivity kma = kma_;
  kma.restore(state.kma_last_input);
  MovementDetector md = md_;
  md.import_state(state.md);
  RadioEnvironment re = re_;
  if (state.re_trained) {
    re.import_classifier(state.re);
  }
  kma_ = std::move(kma);
  md_ = std::move(md);
  re_ = std::move(re);
  controller_.restore(state.controller);
  for (std::size_t w = 0; w < sessions_.size(); ++w) {
    sessions_[w].restore(state.sessions[w]);
  }
  tick_ = static_cast<Tick>(state.tick);
  training_ = state.training;
  samples_ = state.training_samples;
  pending_samples_.clear();
  history_.reset(tick_);
  validity_history_.reset(tick_);
}

void FadewichSystem::scrape_into(obs::ScrapeReport& report) const {
  report.health.push_back(md_.health_block());
  report.health.push_back(controller_.health_block());
  report.health.push_back(re_.health_block());
  report.metrics.add_histogram(
      controller_.deauth_latency(), "fadewich_ctl_deauth_latency_seconds",
      "movement-start to deauth command (window age at Rule 1)");
  report.metrics.add_histogram(md_.window_seconds(),
                               "fadewich_md_window_seconds",
                               "completed variation-window durations");
  report.metrics.add_histogram(
      step_seconds_, "fadewich_sys_step_seconds",
      "end-to-end step wall time, sampled every 64 ticks");
}

const WorkstationSession& FadewichSystem::session(
    std::size_t workstation) const {
  FADEWICH_EXPECTS(workstation < sessions_.size());
  return sessions_[workstation];
}

}  // namespace fadewich::core
