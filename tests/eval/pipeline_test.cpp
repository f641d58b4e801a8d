// Tests for the offline evaluation pipeline (md_evaluation,
// sample_extraction, security, adversary, usability) on one shared
// small-scale simulated experiment.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "fadewich/eval/adversary.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/eval/sample_extraction.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/eval/usability.hpp"
#include "fadewich/eval/window_matching.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::eval {
namespace {

class PipelineTest : public ::testing::Test {
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

  static std::unique_ptr<PaperExperiment> experiment_;
};

std::unique_ptr<PaperExperiment> PipelineTest::experiment_;

TEST_F(PipelineTest, ExperimentHasEventsAndData) {
  EXPECT_GT(recording().tick_count(), 0);
  EXPECT_FALSE(recording().events().empty());
  EXPECT_EQ(recording().stream_count(), 72u);
}

TEST_F(PipelineTest, EventCountsSumOverLabels) {
  const auto counts = event_counts(recording(), 3);
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, recording().events().size());
}

TEST_F(PipelineTest, SensorSubsetsComeFromThePriorityOrder) {
  const auto five = sensor_subset(5);
  ASSERT_EQ(five.size(), 5u);
  const auto& priority = rf::FloorPlan::deployment_priority();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(five[i], priority[i]);
  }
  EXPECT_THROW(sensor_subset(1), ContractViolation);
  EXPECT_THROW(sensor_subset(10), ContractViolation);
}

TEST_F(PipelineTest, MdRunFindsMostMovements) {
  const auto md = run_md(recording(), sensor_subset(9),
                         default_md_config());
  EXPECT_FALSE(md.windows.empty());
  const auto filtered =
      filter_by_duration(md.windows, recording().rate(), 4.5);
  const auto match =
      match_windows(filtered, recording().events(), recording().rate());
  const auto counts = match.counts();
  EXPECT_GE(counts.recall(), 0.7);
}

TEST_F(PipelineTest, FewerSensorsDetectLess) {
  const auto md3 = run_md(recording(), sensor_subset(3),
                          default_md_config());
  const auto md9 = run_md(recording(), sensor_subset(9),
                          default_md_config());
  const auto tp = [&](const MdRun& run) {
    const auto filtered =
        filter_by_duration(run.windows, recording().rate(), 4.5);
    return match_windows(filtered, recording().events(),
                         recording().rate())
        .counts()
        .true_positives;
  };
  EXPECT_LE(tp(md3), tp(md9));
}

TEST_F(PipelineTest, SumStdSeparatesQuietFromMoving) {
  const auto series = collect_sum_std(recording(), sensor_subset(9),
                                      default_md_config());
  ASSERT_FALSE(series.quiet.empty());
  ASSERT_FALSE(series.moving.empty());
  EXPECT_GT(stats::mean(series.moving), 1.5 * stats::mean(series.quiet));
  EXPECT_GT(series.threshold, stats::mean(series.quiet));
}

TEST_F(PipelineTest, WindowSamplesHaveTDeltaLength) {
  const auto md = run_md(recording(), sensor_subset(5),
                         default_md_config());
  const auto filtered =
      filter_by_duration(md.windows, recording().rate(), 4.5);
  ASSERT_FALSE(filtered.empty());
  const auto samples =
      window_samples(recording(), sensor_subset(5), filtered[0], 4.5);
  EXPECT_EQ(samples.size(), 20u);  // 5 * 4 directed streams
  for (const auto& s : samples) {
    EXPECT_EQ(s.size(), 23u);  // ceil(4.5 * 5 Hz)
  }
}

TEST_F(PipelineTest, DatasetLabelsComeFromGroundTruth) {
  const auto md = run_md(recording(), sensor_subset(9),
                         default_md_config());
  const auto filtered =
      filter_by_duration(md.windows, recording().rate(), 4.5);
  const auto match =
      match_windows(filtered, recording().events(), recording().rate());
  const auto data = build_dataset(recording(), sensor_subset(9), match,
                                  4.5, core::FeatureConfig{});
  ASSERT_EQ(data.size(), match.true_positives.size());
  EXPECT_EQ(data.feature_count(), 72u * 3u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& event =
        recording().events()[match.true_positives[i].event_index];
    EXPECT_EQ(data.labels[i], event_label(event));
  }
}

TEST_F(PipelineTest, FeatureNamesMatchDatasetWidth) {
  const auto names = dataset_feature_names(sensor_subset(3));
  EXPECT_EQ(names.size(), 6u * 3u);
  EXPECT_EQ(names[0].substr(0, 1), "d");
}

TEST_F(PipelineTest, SecurityOutcomesCoverEveryLeave) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  std::size_t leaves = 0;
  for (const auto& e : recording().events()) {
    if (e.kind == sim::EventKind::kLeave) ++leaves;
  }
  EXPECT_EQ(security.outcomes.size(), leaves);
  for (const auto& outcome : security.outcomes) {
    switch (outcome.outcome) {
      case DeauthCase::kCorrect:
        EXPECT_LT(outcome.delay, 10.0);
        break;
      case DeauthCase::kMisclassified:
        EXPECT_DOUBLE_EQ(outcome.delay, config.t_id + config.t_ss);
        break;
      case DeauthCase::kMissed:
        EXPECT_DOUBLE_EQ(outcome.delay, config.timeout);
        break;
    }
  }
}

TEST_F(PipelineTest, DecisionsExistForEveryLongWindow) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  const auto md = run_md(recording(), sensor_subset(9),
                         default_md_config());
  const auto filtered =
      filter_by_duration(md.windows, recording().rate(), config.t_delta);
  EXPECT_EQ(security.decisions.size(), filtered.size());
  for (const auto& d : security.decisions) {
    EXPECT_GT(d.decision_time, 0.0);
    EXPECT_GE(d.predicted_label, 0);
    EXPECT_LE(d.predicted_label, 3);
  }
}

TEST_F(PipelineTest, DeauthProportionSeriesIsMonotone) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  std::vector<Seconds> grid;
  for (double x = 0.0; x <= 10.0; x += 0.5) grid.push_back(x);
  const auto series = deauth_proportion_series(security.outcomes, grid);
  ASSERT_EQ(series.size(), grid.size());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i], series[i - 1]);
  }
  EXPECT_GE(series.back(), 0.0);
  EXPECT_LE(series.back(), 100.0);
}

TEST_F(PipelineTest, TimeoutBaselineAlwaysAttackable) {
  const auto stats =
      count_attack_opportunities_timeout(recording(), 300.0);
  EXPECT_GT(stats.total_leaves, 0u);
  EXPECT_EQ(stats.insider_opportunities, stats.total_leaves);
  EXPECT_EQ(stats.coworker_opportunities, stats.total_leaves);
  EXPECT_DOUBLE_EQ(stats.insider_percent(), 100.0);
}

TEST_F(PipelineTest, FadewichBlocksMostAttacks) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  const auto stats = count_attack_opportunities(security, recording());
  EXPECT_EQ(stats.total_leaves, security.outcomes.size());
  EXPECT_LT(stats.insider_percent(), 50.0);
  EXPECT_LE(stats.insider_opportunities, stats.coworker_opportunities);
}

TEST_F(PipelineTest, ReturnTimeFollowsTheNextEnter) {
  const auto& events = recording().events();
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (events[e].kind != sim::EventKind::kLeave) continue;
    const Seconds back = return_time_after(recording(), e);
    if (std::isinf(back)) continue;  // final departure
    EXPECT_GT(back, events[e].movement_end);
  }
}

TEST_F(PipelineTest, UsabilityProducesFiniteCosts) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  UsabilityConfig ucfg;
  ucfg.input_draws = 5;
  const auto result = evaluate_usability(recording(), security, ucfg);
  EXPECT_GE(result.screensavers_per_day_mean, 0.0);
  EXPECT_GE(result.deauths_per_day_mean, 0.0);
  EXPECT_NEAR(result.cost_per_day_seconds,
              3.0 * result.screensavers_per_day_mean +
                  13.0 * result.deauths_per_day_mean,
              1e-9);
  EXPECT_NEAR(result.total_cost_seconds, result.cost_per_day_seconds,
              1e-9);  // single-day recording
}

TEST_F(PipelineTest, VulnerableTimeBelowTimeoutBaseline) {
  SecurityConfig config;
  const auto security = evaluate_security(
      recording(), sensor_subset(9), default_md_config(), config);
  const double ours = vulnerable_time_minutes(security, recording());
  const double baseline =
      vulnerable_time_minutes_timeout(recording(), 300.0);
  EXPECT_GT(ours, 0.0);
  EXPECT_LT(ours, baseline);
}

}  // namespace
}  // namespace fadewich::eval
