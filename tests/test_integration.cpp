// End-to-end integration tests: full scenario pipelines through the
// experiment runner, mirroring (scaled-down) the paper's evaluation setups.
#include <gtest/gtest.h>

#include <cmath>

#include "radloc/eval/experiment.hpp"
#include "radloc/eval/scenarios.hpp"

namespace radloc {
namespace {

ExperimentOptions fast_options(std::size_t trials = 2, std::size_t steps = 12) {
  ExperimentOptions opts;
  opts.trials = trials;
  opts.time_steps = steps;
  opts.seed = 99;
  return opts;
}

TEST(Integration, ScenarioATwoSourcesConverges) {
  const auto scenario = make_scenario_a(/*strength=*/50.0, /*bg=*/5.0, /*obstacle=*/false);
  const auto result = run_experiment(scenario, fast_options());

  ASSERT_EQ(result.error.size(), 12u);
  // Late-window error small for both sources; FP/FN low.
  for (std::size_t j = 0; j < 2; ++j) {
    const double late = result.avg_error(j, 8, 12);
    ASSERT_FALSE(std::isnan(late)) << "source " << j;
    EXPECT_LT(late, 10.0) << "source " << j;
  }
  EXPECT_LT(result.avg_false_negatives(8, 12), 0.5);
}

TEST(Integration, ErrorDecreasesOverTime) {
  // The paper's Figs. 3-6: error shrinks after the first few steps. Averaged
  // over 10 seeds of 3 trials each, the late window's error must be below
  // the early window's.
  const auto scenario = make_scenario_a(50.0, 5.0, false);
  double early_sum = 0.0;
  double late_sum = 0.0;
  int paired = 0;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    ExperimentOptions opts = fast_options(3, 14);
    opts.seed = 1000 + s;
    const auto result = run_experiment(scenario, opts);
    const double early = result.avg_error_all(0, 3);
    const double late = result.avg_error_all(10, 14);
    ASSERT_FALSE(std::isnan(late)) << "seed " << opts.seed;
    if (std::isnan(early)) continue;  // nothing estimated yet early on
    early_sum += early;
    late_sum += late;
    ++paired;
  }
  ASSERT_GT(paired, 0);
  EXPECT_LT(late_sum / paired, early_sum / paired + 1e-9);
}

TEST(Integration, WeakSourceHarderThanStrong) {
  const auto weak = run_experiment(make_scenario_a(4.0, 5.0, false), fast_options(3, 14));
  const auto strong = run_experiment(make_scenario_a(100.0, 5.0, false), fast_options(3, 14));
  // Weak sources (4 uCi vs 5 CPM background) are missed more often.
  EXPECT_GE(weak.avg_false_negatives(4, 14) + 1e-9, strong.avg_false_negatives(4, 14));
}

TEST(Integration, HighBackgroundStillLocalizes) {
  const auto scenario = make_scenario_a(50.0, 50.0, false);
  const auto result = run_experiment(scenario, fast_options(2, 14));
  EXPECT_LT(result.avg_error_all(10, 14), 12.0);
}

TEST(Integration, ObstacleDoesNotBreakLocalization) {
  const auto with_obs = run_experiment(make_scenario_a(50.0, 5.0, true), fast_options(2, 14));
  const double late = with_obs.avg_error_all(10, 14);
  ASSERT_FALSE(std::isnan(late));
  EXPECT_LT(late, 12.0);
}

TEST(Integration, ThreeSourceScenarioConverges) {
  const auto scenario = make_scenario_a3(50.0, 5.0);
  const auto result = run_experiment(scenario, fast_options(2, 16));
  EXPECT_LT(result.avg_false_negatives(12, 16), 1.0);
  const double late = result.avg_error_all(12, 16);
  ASSERT_FALSE(std::isnan(late));
  EXPECT_LT(late, 12.0);
}

TEST(Integration, LossyShuffledDeliveryDegradesGracefully) {
  auto opts = fast_options(2, 14);
  opts.delivery_override = DeliveryKind::kShuffled;
  opts.loss_rate = 0.25;
  const auto result = run_experiment(make_scenario_a(50.0, 5.0, false), opts);
  EXPECT_LT(result.avg_error_all(10, 14), 12.0);
}

TEST(Integration, RandomLatencyDeliveryWorks) {
  auto opts = fast_options(2, 14);
  opts.delivery_override = DeliveryKind::kRandomLatency;
  opts.mean_latency_steps = 1.5;
  const auto result = run_experiment(make_scenario_a(50.0, 5.0, false), opts);
  EXPECT_LT(result.avg_error_all(10, 14), 15.0);
}

TEST(Integration, ScenarioBSmokeTest) {
  // Full Scenario B is bench territory; here a budget version proves the
  // 9-source pipeline works end to end.
  auto scenario = make_scenario_b(5.0, true);
  scenario.recommended_particles = 6000;
  auto opts = fast_options(1, 10);
  const auto result = run_experiment(scenario, opts);
  ASSERT_EQ(result.error.size(), 10u);
  ASSERT_EQ(result.error[0].size(), 9u);
  // Most sources should be found by step 10.
  EXPECT_LT(result.avg_false_negatives(7, 10), 4.0);
  EXPECT_GT(result.seconds_per_iteration, 0.0);
}

TEST(Integration, ExperimentIsDeterministicForSeed) {
  const auto scenario = make_scenario_a(20.0, 5.0, false);
  const auto r1 = run_experiment(scenario, fast_options(2, 6));
  const auto r2 = run_experiment(scenario, fast_options(2, 6));
  for (std::size_t t = 0; t < r1.error.size(); ++t) {
    for (std::size_t j = 0; j < r1.error[t].size(); ++j) {
      const bool nan1 = std::isnan(r1.error[t][j]);
      const bool nan2 = std::isnan(r2.error[t][j]);
      ASSERT_EQ(nan1, nan2);
      if (!nan1) {
        ASSERT_DOUBLE_EQ(r1.error[t][j], r2.error[t][j]);
      }
    }
    ASSERT_DOUBLE_EQ(r1.false_positives[t], r2.false_positives[t]);
  }
}

TEST(Integration, OptionValidation) {
  const auto scenario = make_scenario_a();
  ExperimentOptions opts;
  opts.trials = 0;
  EXPECT_THROW((void)run_experiment(scenario, opts), std::invalid_argument);
  opts = ExperimentOptions{};
  opts.time_steps = 0;
  EXPECT_THROW((void)run_experiment(scenario, opts), std::invalid_argument);
}

}  // namespace
}  // namespace radloc
