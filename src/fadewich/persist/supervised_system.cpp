#include "fadewich/persist/supervised_system.hpp"

#include <exception>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/simd.hpp"

namespace fadewich::persist {

namespace {
SupervisedConfig validated(SupervisedConfig config) {
  if (config.checkpoint_period_ticks < 1) {
    throw Error("supervised config: checkpoint_period_ticks must be >= 1");
  }
  if (config.max_restarts < 1) {
    throw Error("supervised config: max_restarts must be >= 1");
  }
  return config;
}
}  // namespace

SupervisedSystem::SupervisedSystem(std::size_t stream_count,
                                   std::size_t workstation_count,
                                   core::SystemConfig system_config,
                                   SupervisedConfig config)
    : system_(stream_count, workstation_count, system_config),
      recovery_(validated(config).recovery),
      checkpoint_period_(config.checkpoint_period_ticks),
      max_restarts_(config.max_restarts) {
  station_health_.imputed_per_stream.assign(stream_count, 0);
  if (restore(&recovery_report_)) {
    obs::events().info("persist", "recovered from snapshot", 0,
                       {{"path", recovery_report_.recovered_path}});
  } else {
    degraded_start_ = true;
    obs::events().warn("persist", "cold start: no usable snapshot", 0);
  }
}

bool SupervisedSystem::restore(RecoveryReport* report) {
  const std::optional<Snapshot> snapshot = recovery_.recover(system_, report);
  if (snapshot) station_health_ = snapshot->station;
  return snapshot.has_value();
}

bool SupervisedSystem::restart() {
  if (retired_) return false;
  if (restarts_ >= max_restarts_) {
    retired_ = true;
    return false;
  }
  ++restarts_;
  if (!restore(nullptr)) retired_ = true;
  return !retired_;
}

SupervisedSystem::StepResult SupervisedSystem::step(
    std::span<const double> rssi_row, std::span<const std::uint8_t> valid) {
  StepResult result;
  ++steps_;
  const Tick tick = static_cast<Tick>(steps_);
  try {
    result.inner = system_.step(rssi_row, valid);
    if (steps_ % static_cast<std::uint64_t>(checkpoint_period_) == 0) {
      checkpoint_now();
    }
  } catch (const std::exception& e) {
    result.inner = {};
    result.recovered = restart();
    obs::events().error("persist",
                        result.recovered ? "pipeline step failed; restored"
                                         : "pipeline step failed; retired",
                        tick, {{"what", e.what()}});
  }
  return result;
}

obs::ScrapeReport SupervisedSystem::scrape(
    const net::FaultInjector::Counters* faults) const {
  obs::ScrapeReport report;
  report.events = obs::events().recent();

  obs::HealthBlock pipeline;
  pipeline.name = "pipeline";
  pipeline.add("tick", static_cast<double>(system_.tick()));
  pipeline.add("training", system_.training() ? 1.0 : 0.0);
  pipeline.add("degraded_start", degraded_start_ ? 1.0 : 0.0);
  pipeline.add("checkpoints_written",
               static_cast<double>(checkpoints_written()));
  pipeline.add("simd_isa", static_cast<double>(simd::active_isa()));
  pipeline.add("scratch_arena_bytes",
               static_cast<double>(
                   common::ScratchArena::process_bytes_reserved()));
  report.health.push_back(std::move(pipeline));
  system_.scrape_into(report);
  recovery_.scrape_into(report);

  report.health.push_back(net::health_block(station_health_));
  if (faults != nullptr) {
    report.health.push_back(net::health_block(*faults));
  }
  const UnitHealth pipeline_unit{"pipeline", restarts_, retired_};
  report.health.push_back(health_block({&pipeline_unit, 1}));
  return report;
}

std::string SupervisedSystem::checkpoint_now() {
  Snapshot snapshot;
  snapshot.system = system_.export_state();
  snapshot.station = station_health_;
  return recovery_.checkpoint(snapshot);
}

}  // namespace fadewich::persist
