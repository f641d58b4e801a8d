// Tests for the active-adversary sweep: the wire-path replay under
// attack campaigns, with and without the defend module in the path.
#include "fadewich/eval/attack_sweep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fadewich/eval/paper_setup.hpp"

namespace fadewich::eval {
namespace {

class AttackSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PaperSetup setup = small_setup(1, 45.0 * 60.0);
    setup.seed = 99;
    experiment_ = std::make_unique<PaperExperiment>(
        make_paper_experiment(setup));
  }

  static void TearDownTestSuite() { experiment_.reset(); }

  static const sim::Recording& recording() {
    return experiment_->recording;
  }
  static const std::vector<rf::Point>& positions() {
    return experiment_->plan.sensors;
  }

  static AttackScenario clean_scenario(bool defend) {
    AttackScenario scenario;
    scenario.name = defend ? "clean_on" : "clean_off";
    scenario.defend = defend;
    return scenario;
  }

  static AttackScenario forge_scenario(bool defend, Tick ticks) {
    AttackScenario scenario;
    scenario.name = "forge";
    scenario.defend = defend;
    scenario.attack.forged_per_tick = 1;
    scenario.attack.forge_station = 0;
    scenario.attack.forge_from = ticks / 3;
    scenario.attack.forge_to = 2 * ticks / 3;
    return scenario;
  }

  static std::unique_ptr<PaperExperiment> experiment_;
};

std::unique_ptr<PaperExperiment> AttackSweepTest::experiment_;

TEST_F(AttackSweepTest, CleanWirePathReconstructsTheRecordingExactly) {
  const AttackReplayResult replay = replay_under_attack(
      recording(), positions(), clean_scenario(/*defend=*/false));
  ASSERT_EQ(replay.recording.tick_count(), recording().tick_count());
  for (std::size_t s = 0; s < recording().stream_count(); ++s) {
    ASSERT_EQ(replay.recording.stream(s), recording().stream(s))
        << "stream " << s;
  }
  EXPECT_EQ(replay.health.imputed_cells, 0u);
  EXPECT_EQ(replay.gap_rows, 0u);
  EXPECT_EQ(replay.wire.rejected_frames(), 0u);
  EXPECT_EQ(replay.recording.events().size(), recording().events().size());
}

TEST_F(AttackSweepTest, DefenderCostsNothingOnAnHonestWeek) {
  // The headline acceptance criterion: defender on vs off over clean
  // traffic must be bit-identical, row for row.
  const AttackReplayResult off = replay_under_attack(
      recording(), positions(), clean_scenario(/*defend=*/false));
  const AttackReplayResult on = replay_under_attack(
      recording(), positions(), clean_scenario(/*defend=*/true));
  EXPECT_EQ(on.row_digest, off.row_digest);
  EXPECT_EQ(on.defend.frames_rejected(), 0u);
  EXPECT_EQ(on.defend.ramped_samples, 0u);  // no gaps, no ramps
  EXPECT_EQ(on.defend.impossible_rssi, 0u);
  EXPECT_EQ(on.defend.link_quarantine_drops, 0u);
  EXPECT_GT(on.defend.frames_accepted, 0u);
}

TEST_F(AttackSweepTest, DefenderFiltersForgeryDownToTheCleanRows) {
  const Tick ticks = recording().tick_count();
  const AttackReplayResult clean = replay_under_attack(
      recording(), positions(), clean_scenario(/*defend=*/true));
  const AttackReplayResult attacked = replay_under_attack(
      recording(), positions(), forge_scenario(/*defend=*/true, ticks));
  // Outsider forgeries are unauthenticated: every one dies at the auth
  // gate and the reconstruction matches the clean run bit for bit.
  EXPECT_GT(attacked.attack.forged, 0u);
  EXPECT_EQ(attacked.defend.unauthenticated, attacked.attack.forged);
  EXPECT_EQ(attacked.row_digest, clean.row_digest);
}

TEST_F(AttackSweepTest, UndefendedForgeryPoisonsTheReconstruction) {
  const Tick ticks = recording().tick_count();
  const AttackReplayResult clean = replay_under_attack(
      recording(), positions(), clean_scenario(/*defend=*/false));
  const AttackReplayResult attacked = replay_under_attack(
      recording(), positions(), forge_scenario(/*defend=*/false, ticks));
  EXPECT_GT(attacked.attack.forged, 0u);
  EXPECT_NE(attacked.row_digest, clean.row_digest);
}

TEST_F(AttackSweepTest, EvaluateAttackScenarioAccountsForEveryLeave) {
  const AttackScenarioResult result = evaluate_attack_scenario(
      recording(), positions(),
      sensor_subset(recording().sensor_count()), default_md_config(),
      SecurityConfig{},
      forge_scenario(/*defend=*/true, recording().tick_count()));
  EXPECT_GT(result.leave_events, 0u);
  EXPECT_EQ(result.case_a + result.case_b + result.case_c,
            result.leave_events);
  EXPECT_GE(result.mean_delay, 0.0);
  EXPECT_GT(result.defend.frames_rejected(), 0u);
}

TEST_F(AttackSweepTest, StandardScenariosCoverEveryCampaign) {
  const std::vector<AttackScenario> scenarios = standard_attack_scenarios(
      10'000, 9, /*defend=*/true, defend::DefendConfig{}, /*seed=*/11);
  ASSERT_EQ(scenarios.size(), 8u);
  EXPECT_EQ(scenarios[0].name, "clean");
  EXPECT_FALSE(scenarios[0].attack.enabled());
  bool saw_insider = false;
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    EXPECT_TRUE(scenarios[i].attack.enabled()) << scenarios[i].name;
    EXPECT_TRUE(scenarios[i].defend);
    saw_insider |= scenarios[i].attack.forge_with_key;
  }
  EXPECT_TRUE(saw_insider);
}

/// Wire-path conservation under every defended campaign: each decoded
/// frame is judged once, each judged frame is accepted or rejected, and
/// each report the defender forwards reaches the station.
TEST_F(AttackSweepTest, DefendedCampaignsConserveFramesAndReports) {
  const std::vector<AttackScenario> scenarios = standard_attack_scenarios(
      recording().tick_count(), recording().sensor_count(),
      /*defend=*/true, defend::DefendConfig{}, /*seed=*/11);
  ASSERT_EQ(scenarios.size(), 8u);
  for (const AttackScenario& scenario : scenarios) {
    const AttackReplayResult replay =
        replay_under_attack(recording(), positions(), scenario);
    const defend::DefendCounters& def = replay.defend;
    EXPECT_GT(def.frames_checked, 0u) << scenario.name;
    EXPECT_EQ(def.frames_checked, replay.wire.frames_ok) << scenario.name;
    EXPECT_EQ(def.frames_checked,
              def.frames_accepted + def.frames_rejected())
        << scenario.name;
    EXPECT_EQ(def.reports_accepted, replay.health.reports) << scenario.name;
  }
}

/// One defended campaign's decisions: the reconstruction digest and
/// every DefendCounters field, in declaration order.
struct PinnedCampaign {
  const char* name;
  std::uint64_t row_digest;
  std::array<std::uint64_t, 18> defend;
};

std::array<std::uint64_t, 18> defend_fields(const defend::DefendCounters& c) {
  return {c.frames_checked,     c.frames_accepted,
          c.rate_limited,       c.unknown_station,
          c.unauthenticated,    c.bad_tag,
          c.replayed,           c.stale,
          c.spoof_conflicts,    c.station_quarantine_drops,
          c.reports_checked,    c.reports_accepted,
          c.impossible_rssi,    c.variance_flags,
          c.stuck_drops,        c.link_quarantine_drops,
          c.link_quarantines,   c.ramped_samples};
}

std::string pinned_literal(const std::string& name, std::uint64_t digest,
                           const std::array<std::uint64_t, 18>& fields) {
  std::ostringstream out;
  out << "{\"" << name << "\", " << digest << "u, {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << (i == 0 ? "" : ", ") << fields[i] << "u";
  }
  out << "}}";
  return out.str();
}

/// The defender's decisions on every defended standard campaign, pinned
/// to the values the per-report consistency checker gave before the
/// per-frame checker replaced it.  Any change to what the defender
/// accepts, drops or smooths moves a digest or a counter here.
TEST_F(AttackSweepTest, DefendedCampaignDecisionsArePinned) {
  const std::vector<PinnedCampaign> pinned = {
      {"clean",
       747497121808135356u,
       {121500u, 121500u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
        0u, 972000u, 972000u, 0u, 0u, 0u, 0u, 0u, 0u}},
      {"forge",
       747497121808135356u,
       {123000u, 121500u, 0u, 0u, 1500u, 0u, 0u, 0u, 0u,
        0u, 972000u, 972000u, 0u, 0u, 0u, 0u, 0u, 0u}},
      {"forge_insider",
       6280090842224932028u,
       {123000u, 119703u, 0u, 0u, 0u, 0u, 0u, 0u, 3u,
        3294u, 957624u, 957620u, 4u, 0u, 0u, 0u, 0u, 829u}},
      {"replay_takeover",
       6289486426782315708u,
       {126702u, 120000u, 0u, 0u, 0u, 6702u, 0u, 0u, 0u,
        0u, 960000u, 960000u, 0u, 0u, 0u, 0u, 0u, 800u}},
      {"flood",
       747497121808135356u,
       {169500u, 121500u, 43440u, 0u, 4560u, 0u, 0u, 0u, 0u,
        0u, 972000u, 972000u, 0u, 0u, 0u, 0u, 0u, 0u}},
      {"outage_dos",
       2154854344455894204u,
       {118498u, 118498u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
        0u, 947984u, 947984u, 0u, 0u, 0u, 0u, 0u, 1600u}},
      {"jam_mimic",
       14679995289113212092u,
       {121500u, 121500u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
        0u, 972000u, 821035u, 35u, 514u, 0u, 150416u, 72u, 7200u}},
      {"jam_mask",
       5877270493802804412u,
       {121500u, 121500u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
        0u, 972000u, 842688u, 0u, 0u, 72u, 129240u, 72u, 7200u}},
  };
  const std::vector<AttackScenario> scenarios = standard_attack_scenarios(
      recording().tick_count(), recording().sensor_count(),
      /*defend=*/true, defend::DefendConfig{}, /*seed=*/11);
  ASSERT_EQ(scenarios.size(), pinned.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const AttackReplayResult replay =
        replay_under_attack(recording(), positions(), scenarios[i]);
    const std::array<std::uint64_t, 18> fields = defend_fields(replay.defend);
    EXPECT_EQ(scenarios[i].name, pinned[i].name);
    EXPECT_EQ(replay.row_digest, pinned[i].row_digest) << scenarios[i].name;
    EXPECT_EQ(fields, pinned[i].defend) << scenarios[i].name;
    if (replay.row_digest != pinned[i].row_digest ||
        fields != pinned[i].defend) {
      ADD_FAILURE() << "now: "
                    << pinned_literal(scenarios[i].name, replay.row_digest,
                                      fields);
    }
  }
}

}  // namespace
}  // namespace fadewich::eval
