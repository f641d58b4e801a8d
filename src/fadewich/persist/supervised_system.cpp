#include "fadewich/persist/supervised_system.hpp"

#include <exception>
#include <utility>

#include "fadewich/common/simd.hpp"

namespace fadewich::persist {

SupervisedSystem::SupervisedSystem(std::size_t stream_count,
                                   std::size_t workstation_count,
                                   core::SystemConfig system_config,
                                   RecoveryConfig recovery)
    : system_(stream_count, workstation_count, system_config),
      recovery_(std::move(recovery)) {
  station_health_.imputed_per_stream.assign(stream_count, 0);
  degraded_start_ = !restore(recovery_report_, 0);
}

bool SupervisedSystem::restore(RecoveryReport& report, Tick tick) {
  const bool restored = recovery_.recover(system_, report).has_value();
  log_recovery(events_, report, {}, tick);
  return restored;
}

bool SupervisedSystem::restart(Tick tick) {
  if (retired_) return false;
  RecoveryReport report;
  retired_ = !recovery_.try_restart() || !restore(report, tick);
  return !retired_;
}

SupervisedSystem::StepResult SupervisedSystem::step(
    std::span<const double> rssi_row, std::span<const std::uint8_t> valid) {
  StepResult result;
  const Tick tick = system_.tick() + 1;
  try {
    result.inner = system_.step(rssi_row, valid);
    recovery_.checkpoint_if_due(system_);
  } catch (const std::exception& e) {
    result.inner = {};
    result.recovered = restart(tick);
    events_.error("persist",
                  result.recovered ? "pipeline step failed; restored"
                                   : "pipeline step failed; retired",
                  tick, {{"what", e.what()}});
  }
  return result;
}

obs::ScrapeReport SupervisedSystem::scrape(
    const net::FaultInjector::Counters* faults) const {
  obs::ScrapeReport report;
  report.events = events_.recent();

  obs::HealthBlock pipeline;
  pipeline.name = "pipeline";
  pipeline.add("tick", static_cast<double>(system_.tick()));
  pipeline.add("training", system_.training() ? 1.0 : 0.0);
  pipeline.add("degraded_start", degraded_start_ ? 1.0 : 0.0);
  pipeline.add("checkpoints_written",
               static_cast<double>(checkpoints_written()));
  pipeline.add("simd_isa", static_cast<double>(simd::active_isa()));
  report.health.push_back(std::move(pipeline));
  system_.scrape_into(report);
  recovery_.scrape_into(report);

  report.health.push_back(net::health_block(station_health_));
  if (faults != nullptr) {
    report.health.push_back(net::health_block(*faults));
  }
  const UnitHealth pipeline_unit{"pipeline", restarts(), retired_};
  report.health.push_back(health_block({&pipeline_unit, 1}));
  return report;
}

std::string SupervisedSystem::checkpoint_now() {
  return recovery_.checkpoint(system_);
}

}  // namespace fadewich::persist
