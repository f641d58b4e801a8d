#include "fadewich/fleet/office_shard.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::fleet {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The station health a shard checkpoints: shards run without a station.
const net::StationHealth kNoStation;

/// Uniform in (0, 1] from one splitmix-mixed 64-bit word.
double unit_open(std::uint64_t z) {
  return (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
}

ShardConfig validated(ShardConfig config) {
  if (config.streams < 2 || config.workstations < 1 ||
      config.streams < config.workstations) {
    throw Error("shard config: need >= 2 streams and >= 1 workstation, "
                "streams >= workstations");
  }
  if (config.block_ticks < 1) {
    throw Error("shard config: block_ticks must be >= 1");
  }
  if (config.burst <= 0.0 || config.away <= 0.0 || config.rest <= 0.0 ||
      config.settle <= 0.0 || config.train_rounds < 1) {
    throw Error("shard config: script phases must be positive");
  }
  return config;
}

}  // namespace

core::SystemConfig default_shard_system() {
  core::SystemConfig config;
  config.tick_hz = 5.0;
  config.md.std_window = 2.0;
  config.md.calibration = 15.0;
  config.md.profile.capacity = 100;
  config.md.profile.batch_size = 50;
  config.labeler.long_idle = 20.0;
  return config;
}

OfficeShard::OfficeShard(std::size_t index, std::uint64_t seed,
                         ShardConfig config)
    : index_(index),
      seed_(seed),
      config_(validated(std::move(config))),
      tick_hz_(config_.system.tick_hz),
      system_(config_.streams, config_.workstations, config_.system) {
  const TickRate rate(tick_hz_);
  script_.settle = rate.to_ticks_ceil(config_.settle);
  script_.burst = rate.to_ticks_ceil(config_.burst);
  script_.away = rate.to_ticks_ceil(config_.away);
  script_.rest = rate.to_ticks_ceil(config_.rest);
  script_.cycle = script_.burst + script_.away + script_.burst + script_.rest;
  script_.round = script_.cycle * static_cast<Tick>(config_.workstations);
  script_.train_end =
      script_.settle +
      script_.round * static_cast<Tick>(config_.train_rounds);
  block_.resize(config_.block_ticks, config_.streams);
}

void OfficeShard::enable_persistence(persist::RecoveryConfig recovery) {
  recovery_ = std::make_unique<persist::RecoveryManager>(std::move(recovery));
}

OfficeShard::Phase OfficeShard::phase_at(Tick tick) const {
  Phase phase;
  if (tick < script_.settle) return phase;
  const Tick u = tick - script_.settle;
  const Tick in_round = u % script_.round;
  phase.settled = false;
  phase.workstation = static_cast<std::size_t>(in_round / script_.cycle);
  phase.offset = in_round % script_.cycle;
  phase.leave_start = tick - phase.offset;
  return phase;
}

bool OfficeShard::seated(const Phase& p, std::size_t workstation) const {
  if (p.settled || workstation != p.workstation) return true;
  // The cycle owner is out (or walking) until the enter burst completes.
  return p.offset >= script_.burst + script_.away + script_.burst;
}

bool OfficeShard::bursting(const Phase& p, std::size_t stream) const {
  if (p.settled) return false;
  const std::size_t owner =
      stream * config_.workstations / config_.streams;
  if (owner != p.workstation) return false;
  const bool leave_burst = p.offset < script_.burst;
  const bool enter_burst =
      p.offset >= script_.burst + script_.away &&
      p.offset < script_.burst + script_.away + script_.burst;
  return leave_burst || enter_burst;
}

double OfficeShard::sample(Tick tick, std::size_t stream) const {
  const Phase phase = phase_at(tick);
  const double sigma = bursting(phase, stream) ? 4.0 : 0.4;
  // Stateless Box-Muller: both uniforms are pure functions of
  // (seed, tick, stream), so any tick range replays bit-identically.
  const std::uint64_t idx =
      static_cast<std::uint64_t>(tick) * config_.streams + stream;
  const double u1 = unit_open(exec::task_seed(seed_, 2 * idx));
  const double u2 = unit_open(exec::task_seed(seed_, 2 * idx + 1));
  const double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return std::round(-60.0 + sigma * normal);
}

void OfficeShard::fill_block(Tick from, Tick count) {
  block_.resize(static_cast<std::size_t>(count), config_.streams);
  if (row_source_) {
    row_source_(from, static_cast<std::size_t>(count), block_);
    return;
  }
  for (Tick i = 0; i < count; ++i) {
    double* row = block_.row(static_cast<std::size_t>(i));
    for (std::size_t s = 0; s < config_.streams; ++s) {
      row[s] = sample(from + i, s);
    }
  }
}

void OfficeShard::step_tick(Tick tick, std::size_t row) {
  const Seconds now = system_.rate().to_seconds(tick);
  const Phase phase = phase_at(tick);

  // Seated users type once a second (the KMA signal Rule 1 needs).
  const auto ticks_per_second = static_cast<Tick>(std::lround(tick_hz_));
  if (tick % ticks_per_second == 0) {
    for (std::size_t w = 0; w < config_.workstations; ++w) {
      if (seated(phase, w)) system_.record_input(w, now);
    }
  }

  if (kill_tick_ && tick == *kill_tick_) {
    kill_tick_.reset();  // one-shot: a recovered shard replays past it
    throw Error("injected shard crash at tick " + std::to_string(tick));
  }

  const auto row_span = block_.row_span(row);
  digest_.update(row_span.data(), row_span.size() * sizeof(double));
  const core::FadewichSystem::StepResult result = system_.step(row_span);
  account(tick, result);

  // Switch online at the scripted training horizon; if the labeler has
  // not yet seen two classes (it has, with the default rounds), retry at
  // each later round boundary.
  if (system_.training() && tick + 1 >= script_.train_end &&
      (tick + 1 - script_.settle) % script_.round == 0) {
    system_.finish_training();
  }

  if (recovery_ != nullptr) {
    recovery_->checkpoint_if_due(system_, kNoStation);
  }
}

void OfficeShard::account(Tick tick,
                          const core::FadewichSystem::StepResult& result) {
  const auto md = static_cast<std::uint8_t>(result.md_state);
  digest_.update(&md, sizeof(md));
  const std::int32_t label =
      result.classification ? *result.classification : -1;
  digest_.update(&label, sizeof(label));
  for (const core::Action& action : result.actions) {
    struct {
      std::int64_t tick;
      std::int32_t type;
      std::uint32_t workstation;
    } record{tick, static_cast<std::int32_t>(action.type),
             static_cast<std::uint32_t>(action.workstation)};
    digest_.update(&record, sizeof(record));

    if (action.type == core::ActionType::kAlert) {
      ++alerts_;
      continue;
    }
    // A deauthentication is on time when it hits the cycle owner between
    // the start of its leave burst and the end of its absence; anything
    // else is spurious.
    const Phase phase = phase_at(tick);
    const bool on_leave =
        !system_.training() && !phase.settled &&
        action.workstation == phase.workstation &&
        phase.offset < script_.burst + script_.away;
    if (on_leave) {
      ++deauths_;
      const Seconds latency =
          system_.rate().to_seconds(tick - phase.leave_start);
      metrics_.deauth_latency.observe(latency);
    } else {
      ++spurious_deauths_;
    }
  }
}

void OfficeShard::run_until(Tick boundary) {
  if (faulted_) return;
  while (system_.tick() < boundary) {
    const Tick from = system_.tick();
    const Tick count = std::min<Tick>(
        static_cast<Tick>(config_.block_ticks), boundary - from);
    const auto frame = arena_.frame();
    try {
      fill_block(from, count);
    } catch (const std::exception& e) {
      // A RowSource stepped past its buffered rows (a sequencing bug in
      // the driver above us) — fault the shard, never throw across the
      // fleet boundary.
      faulted_ = true;
      fault_what_ = e.what();
      return;
    }
    for (Tick i = 0; i < count; ++i) {
      try {
        step_tick(from + i, static_cast<std::size_t>(i));
      } catch (const std::exception& e) {
        faulted_ = true;
        fault_what_ = e.what();
        return;
      }
    }
  }
}

bool OfficeShard::restart() {
  if (recovery_ == nullptr || !recovery_->try_restart()) return false;
  if (!recovery_->recover(system_)) {
    system_ = core::FadewichSystem(config_.streams, config_.workstations,
                                   config_.system);
  }
  faulted_ = false;
  fault_what_.clear();
  return true;
}

std::size_t OfficeShard::memory_bytes() const {
  return sizeof(OfficeShard) +
         block_.rows() * block_.cols() * sizeof(double) +
         arena_.bytes_reserved();
}

}  // namespace fadewich::fleet
