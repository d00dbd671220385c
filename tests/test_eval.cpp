#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "radloc/eval/experiment.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/report.hpp"
#include "radloc/eval/scenarios.hpp"

namespace radloc {
namespace {

// ----------------------------------------------------------------- matching

TEST(Matching, PerfectMatch) {
  const std::vector<Source> truth{{{10, 10}, 5.0}, {{90, 90}, 5.0}};
  const std::vector<SourceEstimate> est{{{11, 10}, 5.0, 0.5}, {{90, 91}, 5.0, 0.5}};
  const auto r = match_estimates(truth, est);
  EXPECT_EQ(r.false_positives, 0u);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_NEAR(*r.error[0], 1.0, 1e-12);
  EXPECT_NEAR(*r.error[1], 1.0, 1e-12);
  EXPECT_NEAR(r.mean_error(), 1.0, 1e-12);
}

TEST(Matching, GateProducesFalseNegative) {
  const std::vector<Source> truth{{{10, 10}, 5.0}};
  const std::vector<SourceEstimate> est{{{80, 80}, 5.0, 1.0}};
  const auto r = match_estimates(truth, est, 40.0);
  EXPECT_EQ(r.false_negatives, 1u);
  EXPECT_EQ(r.false_positives, 1u);
  EXPECT_FALSE(r.error[0].has_value());
}

TEST(Matching, OneEstimateCannotMatchTwoSources) {
  // "each estimate must estimate a single source only" (Sec. VI).
  const std::vector<Source> truth{{{50, 50}, 5.0}, {{55, 50}, 5.0}};
  const std::vector<SourceEstimate> est{{{52, 50}, 5.0, 1.0}};
  const auto r = match_estimates(truth, est);
  EXPECT_EQ(r.false_negatives, 1u);
  EXPECT_EQ(r.false_positives, 0u);
}

TEST(Matching, GreedyPicksGloballyClosestFirst) {
  // est0 is near both sources; greedy assigns it to the closer one and
  // est1 takes the other.
  const std::vector<Source> truth{{{50, 50}, 5.0}, {{60, 50}, 5.0}};
  const std::vector<SourceEstimate> est{{{59, 50}, 5.0, 1.0}, {{45, 50}, 5.0, 1.0}};
  const auto r = match_estimates(truth, est);
  EXPECT_EQ(*r.matched_estimate[1], 0u);  // source (60,50) <- est (59,50), d=1
  EXPECT_EQ(*r.matched_estimate[0], 1u);  // source (50,50) <- est (45,50), d=5
  EXPECT_EQ(r.false_positives, 0u);
  EXPECT_EQ(r.false_negatives, 0u);
}

TEST(Matching, ExtraEstimatesAreFalsePositives) {
  const std::vector<Source> truth{{{50, 50}, 5.0}};
  const std::vector<SourceEstimate> est{
      {{50, 51}, 5.0, 1.0}, {{52, 50}, 5.0, 1.0}, {{20, 20}, 5.0, 1.0}};
  const auto r = match_estimates(truth, est);
  EXPECT_EQ(r.false_positives, 2u);
  EXPECT_EQ(r.false_negatives, 0u);
}

TEST(Matching, EmptyInputs) {
  const auto r1 = match_estimates({}, {});
  EXPECT_EQ(r1.false_positives, 0u);
  EXPECT_EQ(r1.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(r1.mean_error(), 0.0);

  const std::vector<Source> truth{{{1, 1}, 1.0}};
  const auto r2 = match_estimates(truth, {});
  EXPECT_EQ(r2.false_negatives, 1u);

  const std::vector<SourceEstimate> est{{{1, 1}, 1.0, 1.0}};
  const auto r3 = match_estimates({}, est);
  EXPECT_EQ(r3.false_positives, 1u);
}

// ---------------------------------------------------------------- scenarios

TEST(Scenarios, ScenarioAMatchesPaper) {
  const auto s = make_scenario_a(10.0, 5.0, false);
  EXPECT_EQ(s.sensors.size(), 36u);
  ASSERT_EQ(s.sources.size(), 2u);
  EXPECT_EQ(s.sources[0].pos, (Point2{47, 71}));
  EXPECT_EQ(s.sources[1].pos, (Point2{81, 42}));
  EXPECT_FALSE(s.env.has_obstacles());
  EXPECT_DOUBLE_EQ(s.sensors[0].response.background_cpm, 5.0);
  EXPECT_EQ(s.recommended_particles, 2000u);
}

TEST(Scenarios, ScenarioAObstacleVariant) {
  const auto s = make_scenario_a(10.0, 5.0, true);
  EXPECT_TRUE(s.env.has_obstacles());
  // The U-obstacle sits in the middle of the area.
  const auto& box = s.env.obstacles()[0].shape().aabb();
  EXPECT_GT(box.min.x, 20.0);
  EXPECT_LT(box.max.x, 80.0);

  const auto stripped = s.without_obstacles();
  EXPECT_FALSE(stripped.env.has_obstacles());
  EXPECT_EQ(stripped.sensors.size(), s.sensors.size());
  EXPECT_EQ(stripped.sources.size(), s.sources.size());
}

TEST(Scenarios, ScenarioA3ThreeSources) {
  const auto s = make_scenario_a3(4.0, 5.0);
  ASSERT_EQ(s.sources.size(), 3u);
  EXPECT_EQ(s.sources[0].pos, (Point2{87, 89}));
  EXPECT_EQ(s.sources[1].pos, (Point2{37, 14}));
  EXPECT_EQ(s.sources[2].pos, (Point2{55, 51}));
  for (const auto& src : s.sources) EXPECT_DOUBLE_EQ(src.strength, 4.0);
}

TEST(Scenarios, ScenarioBMatchesPaperShape) {
  const auto s = make_scenario_b();
  EXPECT_EQ(s.sensors.size(), 196u);
  EXPECT_EQ(s.sources.size(), 9u);
  EXPECT_EQ(s.env.obstacles().size(), 3u);
  EXPECT_EQ(s.recommended_particles, 15000u);
  EXPECT_FALSE(s.out_of_order_delivery);
  for (const auto& src : s.sources) {
    EXPECT_GE(src.strength, 10.0);
    EXPECT_LE(src.strength, 100.0);
    EXPECT_TRUE(s.env.bounds().contains(src.pos));
  }
}

TEST(Scenarios, ScenarioCPoissonPlacementAndOrder) {
  const auto s = make_scenario_c();
  EXPECT_EQ(s.sensors.size(), 195u);
  EXPECT_TRUE(s.out_of_order_delivery);
  EXPECT_EQ(s.sources.size(), 9u);
  // Deterministic placement for a fixed seed.
  const auto s2 = make_scenario_c();
  for (std::size_t i = 0; i < s.sensors.size(); ++i) {
    EXPECT_EQ(s.sensors[i].pos, s2.sensors[i].pos);
  }
}

TEST(Scenarios, ObstaclesNearTheDocumentedSources) {
  const auto s = make_scenario_b();
  auto min_dist_to_obstacle = [&](const Point2& p) {
    double best = 1e18;
    for (const auto& o : s.env.obstacles()) {
      // Distance to obstacle AABB as a proxy.
      const auto& b = o.shape().aabb();
      const double dx = std::max({b.min.x - p.x, 0.0, p.x - b.max.x});
      const double dy = std::max({b.min.y - p.y, 0.0, p.y - b.max.y});
      best = std::min(best, std::hypot(dx, dy));
    }
    return best;
  };
  // S2, S3, S5, S6, S7, S9 (indices 1,2,4,5,6,8) have an obstacle nearby.
  for (const std::size_t j : {1u, 2u, 4u, 5u, 6u, 8u}) {
    EXPECT_LT(min_dist_to_obstacle(s.sources[j].pos), 30.0) << "source " << j + 1;
  }
  // S1 and S4 (indices 0, 3) are in open space.
  for (const std::size_t j : {0u, 3u}) {
    EXPECT_GT(min_dist_to_obstacle(s.sources[j].pos), 50.0) << "source " << j + 1;
  }
}

// ------------------------------------------------------------------ report

TEST(Report, TableFormatsAndRejectsRaggedRows) {
  std::ostringstream os;
  const std::vector<std::string> header{"a", "b"};
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0, std::nan("")}};
  print_table(os, header, rows);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);  // NaN renders as "-"

  const std::vector<std::vector<double>> ragged{{1.0}};
  std::ostringstream os2;
  EXPECT_THROW(print_table(os2, header, ragged), std::invalid_argument);
}

TEST(Report, CsvSeriesRoundTrips) {
  ExperimentResult r;
  r.error = {{1.5, std::nan("")}, {2.5, 3.5}};
  r.matched_frac = {{1.0, 0.0}, {1.0, 1.0}};
  r.false_positives = {0.5, 0.0};
  r.false_negatives = {1.0, 0.0};

  std::ostringstream os;
  const auto names = default_source_names(2);
  write_time_series_csv(os, r, names);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("step,Source1,Source2,false_positives,false_negatives"),
            std::string::npos);
  EXPECT_NE(csv.find("0,1.5,,0.5,1"), std::string::npos);
  EXPECT_NE(csv.find("1,2.5,3.5,0,0"), std::string::npos);
}

TEST(Report, DefaultSourceNames) {
  const auto names = default_source_names(3);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "Source1");
  EXPECT_EQ(names[2], "Source3");
}

TEST(ExperimentResultTest, AverageHelpersSkipNaN) {
  ExperimentResult r;
  r.error = {{std::nan(""), 4.0}, {2.0, 6.0}, {4.0, std::nan("")}};
  r.false_positives = {3.0, 1.0, 2.0};
  r.false_negatives = {1.0, 0.0, 0.0};

  EXPECT_DOUBLE_EQ(r.avg_error(0, 0, 3), 3.0);   // mean of {2, 4}
  EXPECT_DOUBLE_EQ(r.avg_error(1, 0, 3), 5.0);   // mean of {4, 6}
  EXPECT_DOUBLE_EQ(r.avg_error(0, 1, 2), 2.0);   // single step
  EXPECT_DOUBLE_EQ(r.avg_error_all(0, 3), 4.0);  // mean of {3, 5}
  EXPECT_DOUBLE_EQ(r.avg_false_positives(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(r.avg_false_negatives(0, 3), 1.0 / 3.0);
  EXPECT_TRUE(std::isnan(r.avg_error(0, 0, 0)));
}

// ------------------------------------------------ parallel determinism pin

// Bitwise comparison (NaN == NaN) — EXPECT_DOUBLE_EQ would accept ULP noise
// and reject NaN pairs; the contract here is exact equality.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.error.size(), b.error.size());
  for (std::size_t t = 0; t < a.error.size(); ++t) {
    ASSERT_EQ(a.error[t].size(), b.error[t].size());
    for (std::size_t j = 0; j < a.error[t].size(); ++j) {
      EXPECT_TRUE(same_bits(a.error[t][j], b.error[t][j])) << "error[" << t << "][" << j << "]";
      EXPECT_TRUE(same_bits(a.matched_frac[t][j], b.matched_frac[t][j]))
          << "matched_frac[" << t << "][" << j << "]";
    }
    EXPECT_TRUE(same_bits(a.false_positives[t], b.false_positives[t])) << "fp[" << t << "]";
    EXPECT_TRUE(same_bits(a.false_negatives[t], b.false_negatives[t])) << "fn[" << t << "]";
  }
  // seconds_per_iteration is wall clock and intentionally excluded.
}

// The core contract of the parallel trial runner: any thread count
// produces bit-identical metrics to the serial loop.
TEST(ExperimentParallel, EightThreadsBitIdenticalToSerial) {
  const Scenario scenario = make_scenario_a(10.0, 5.0, false);
  ExperimentOptions serial;
  serial.trials = 4;
  serial.time_steps = 5;
  serial.seed = 21;
  serial.num_threads = 1;
  const auto ref = run_experiment(scenario, serial);

  for (const std::size_t threads : {2u, 8u}) {
    ExperimentOptions opts = serial;
    opts.num_threads = threads;
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    expect_identical(ref, run_experiment(scenario, opts));
  }
}

TEST(ExperimentParallel, KnownObstaclesBitIdenticalAcrossThreadCounts) {
  // Obstacle scenario scored by exact known-obstacle geometry: trials that
  // share the scenario's simulator across 8 threads must reproduce the
  // serial loop exactly.
  const Scenario scenario = make_scenario_a3(10.0, 5.0, /*with_obstacle=*/true);
  ExperimentOptions serial;
  serial.trials = 3;
  serial.time_steps = 4;
  serial.seed = 9;
  serial.localizer.filter.use_known_obstacles = true;
  serial.use_scenario_defaults = false;
  serial.num_threads = 1;
  const auto ref = run_experiment(scenario, serial);

  ExperimentOptions parallel = serial;
  parallel.num_threads = 8;
  expect_identical(ref, run_experiment(scenario, parallel));
}

TEST(ExperimentParallel, MoreThreadsThanTrials) {
  const Scenario scenario = make_scenario_a(10.0, 5.0, false);
  ExperimentOptions serial;
  serial.trials = 2;
  serial.time_steps = 3;
  serial.seed = 4;
  const auto ref = run_experiment(scenario, serial);

  ExperimentOptions opts = serial;
  opts.num_threads = 16;
  expect_identical(ref, run_experiment(scenario, opts));
}

}  // namespace
}  // namespace radloc
