#include "fadewich/persist/supervised_system.hpp"

#include <exception>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/common/simd.hpp"

namespace fadewich::persist {

namespace {
constexpr const char* kPipelineModule = "pipeline";

SupervisedConfig validated(SupervisedConfig config) {
  if (config.checkpoint_period_ticks < 1) {
    throw Error("supervised config: checkpoint_period_ticks must be >= 1");
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
      supervisor_(config.supervisor),
      checkpoint_period_(config.checkpoint_period_ticks) {
  station_health_.imputed_per_stream.assign(stream_count, 0);
  supervisor_.add_module(kPipelineModule,
                         [this]() { return restore_from_ring(); });

  const std::optional<Snapshot> snapshot =
      recovery_.recover(&recovery_report_);
  if (snapshot) {
    system_.import_state(snapshot->system);
    station_health_ = snapshot->station;
    obs::events().info("persist", "recovered from snapshot", 0,
                       {{"path", recovery_report_.recovered_path}});
  } else {
    degraded_start_ = true;
    obs::events().warn("persist", "cold start: no usable snapshot", 0);
  }
}

bool SupervisedSystem::restore_from_ring() {
  RecoveryReport report;
  const std::optional<Snapshot> snapshot = recovery_.recover(&report);
  if (!snapshot) return false;
  try {
    system_.import_state(snapshot->system);
  } catch (const Error&) {
    return false;
  }
  station_health_ = snapshot->station;
  return true;
}

SupervisedSystem::StepResult SupervisedSystem::step(
    std::span<const double> rssi_row, std::span<const std::uint8_t> valid) {
  StepResult result;
  ++steps_;
  const Tick tick = static_cast<Tick>(steps_);
  try {
    result.inner = system_.step(rssi_row, valid);
    supervisor_.heartbeat(kPipelineModule, tick);
    if (steps_ % static_cast<std::uint64_t>(checkpoint_period_) == 0) {
      checkpoint_now();
    }
  } catch (const std::exception& e) {
    supervisor_.report_failure(kPipelineModule, tick, e.what());
    supervisor_.poll(tick);
    result.inner = {};
    result.recovered = true;
    obs::events().error("persist", "pipeline step failed; restored", tick,
                        {{"what", e.what()}});
  }
  return result;
}

obs::ScrapeReport SupervisedSystem::scrape(
    const net::FaultInjector::Counters* faults) const {
  obs::ScrapeReport report = obs::scrape(obs::registry(), &obs::events());

  obs::HealthBlock pipeline;
  pipeline.name = "pipeline";
  pipeline.add("tick", static_cast<double>(system_.tick()));
  pipeline.add("training", system_.training() ? 1.0 : 0.0);
  pipeline.add("degraded_start", degraded_start_ ? 1.0 : 0.0);
  pipeline.add("checkpoints_written",
               static_cast<double>(checkpoints_written()));
  pipeline.add("simd_isa", static_cast<double>(simd::active_isa()));
  report.health.push_back(std::move(pipeline));

  report.health.push_back(net::health_block(station_health_));
  if (faults != nullptr) {
    report.health.push_back(net::health_block(*faults));
  }
  report.health.push_back(health_block(supervisor_.health()));
  return report;
}

std::string SupervisedSystem::checkpoint_now() {
  Snapshot snapshot;
  snapshot.system = system_.export_state();
  snapshot.station = station_health_;
  return recovery_.checkpoint(snapshot);
}

}  // namespace fadewich::persist
