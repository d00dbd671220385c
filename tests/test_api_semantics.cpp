// Public-API semantic guarantees that could regress silently: detection
// evidence polarity, estimator knobs, experiment metadata, model-selection
// criteria.
#include <gtest/gtest.h>

#include <cmath>

#include "radloc/baselines/mle.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/experiment.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace radloc {
namespace {

TEST(DetectionEvidence, PolarityMatchesGroundTruth) {
  // After feeding data from one real source, the evidence at the true
  // source parameters is decisively positive; at an empty location it is
  // below threshold; and the marginal evidence of a duplicate candidate on
  // top of the accepted true source collapses.
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  const Source truth{{60, 40}, 40.0};
  MeasurementSimulator sim(env, sensors, {truth});
  MultiSourceLocalizer loc(env, sensors, LocalizerConfig{}, 1);
  Rng noise(2);
  for (int t = 0; t < 8; ++t) loc.process_all(sim.sample_time_step(noise));

  const SourceEstimate at_truth{truth.pos, truth.strength, 1.0};
  const SourceEstimate at_empty{{15, 85}, 40.0, 1.0};
  EXPECT_GT(loc.detection_evidence(at_truth), 100.0);
  EXPECT_LT(loc.detection_evidence(at_empty), 3.0);

  const std::vector<SourceEstimate> accepted{at_truth};
  const SourceEstimate duplicate{truth.pos + Vec2{2.0, 1.0}, truth.strength, 1.0};
  EXPECT_LT(loc.detection_evidence(duplicate, accepted),
            0.2 * loc.detection_evidence(duplicate));
}

TEST(DetectionEvidence, UnobservedRegionIsMinusInfinity) {
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  MultiSourceLocalizer loc(env, sensors, LocalizerConfig{}, 3);
  // No measurements processed at all: nothing to judge with.
  const SourceEstimate anywhere{{50, 50}, 10.0, 1.0};
  EXPECT_TRUE(std::isinf(loc.detection_evidence(anywhere)));
  EXPECT_LT(loc.detection_evidence(anywhere), 0.0);
}

TEST(MeanShiftKnobs, MaxSeedsBoundsWork) {
  Rng rng(4);
  std::vector<Point2> pos;
  std::vector<double> str;
  std::vector<double> w;
  const AreaBounds area = make_area(100, 100);
  for (int i = 0; i < 2000; ++i) {
    pos.push_back(uniform_point(rng, area));
    str.push_back(10.0);
    w.push_back(1.0 / 2000);
  }
  ThreadPool pool(1);
  MeanShiftConfig one_seed;
  one_seed.max_seeds = 1;
  one_seed.min_support = 0.0;
  MeanShiftEstimator est(area, one_seed, pool);
  // One seed can yield at most one mode.
  EXPECT_LE(est.estimate(pos, str, w).size(), 1u);
}

TEST(ExperimentMetadata, MatchedFracAndTimingPopulated) {
  const auto scenario = make_scenario_a(20.0, 5.0, false);
  ExperimentOptions opts;
  opts.trials = 2;
  opts.time_steps = 6;
  opts.seed = 5;
  const auto r = run_experiment(scenario, opts);
  ASSERT_EQ(r.matched_frac.size(), 6u);
  for (const auto& step : r.matched_frac) {
    for (const double f : step) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
  EXPECT_GT(r.seconds_per_iteration, 0.0);
  EXPECT_LT(r.seconds_per_iteration, 1.0);  // sanity: microseconds, not seconds
  // Late steps should match at least as often as step 0 on average.
  double early = 0.0;
  double late = 0.0;
  for (std::size_t j = 0; j < 2; ++j) {
    early += r.matched_frac[0][j];
    late += r.matched_frac[5][j];
  }
  EXPECT_GE(late, early - 1e-9);
}

TEST(ModelSelection, AicAndBicBothRecoverK1) {
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  const std::vector<Source> truth{{{47, 71}, 60.0}};
  MeasurementSimulator sim(env, sensors, truth);
  Rng noise(6);
  std::vector<Measurement> data;
  for (int t = 0; t < 4; ++t) {
    auto batch = sim.sample_time_step(noise);
    data.insert(data.end(), batch.begin(), batch.end());
  }
  for (const auto criterion : {ModelSelection::kAic, ModelSelection::kBic}) {
    MleConfig cfg;
    cfg.max_sources = 3;
    cfg.restarts = 5;
    cfg.criterion = criterion;
    MleLocalizer mle(env, sensors, cfg);
    Rng rng(7);
    const auto fit = mle.fit(data, rng);
    if (criterion == ModelSelection::kBic) {
      // BIC's ln(n) penalty reliably picks the true K here.
      EXPECT_EQ(fit.selected_k, 1u);
    } else {
      // AIC's constant penalty is known to overfit by a component or so —
      // the textbook behavior this paper's Sec. II cites against model
      // selection. Allow the off-by-one.
      EXPECT_LE(fit.selected_k, 2u);
      EXPECT_GE(fit.selected_k, 1u);
    }
  }
}

TEST(LocalizerKnobs, ObstacleAwareModeBeatsBlindBehindHeavyWalls) {
  // End-to-end version of the filter-level test: with a near-opaque wall
  // shadowing the source's nearest sensors, the obstacle-aware localizer's
  // error must not be worse than twice the blind one's (usually better), on
  // every one of 20 seeds. The blind localizer often settles on a ghost
  // beyond the wall, but it must still find the source (error < 25) on at
  // least a quarter of the seeds (the paper's claim).
  Environment env(make_area(100, 100),
                  {Obstacle(make_rect(30, 30, 36, 70), 0.7)});
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  const std::vector<Source> truth{{{22, 50}, 60.0}};
  MeasurementSimulator sim(env, sensors, truth);

  constexpr std::uint64_t kSeeds = 20;
  std::uint64_t blind_found = 0;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) {
    auto run = [&](bool aware) {
      LocalizerConfig cfg;
      cfg.filter.use_known_obstacles = aware;
      MultiSourceLocalizer loc(env, sensors, cfg, 1000 + s);
      Rng noise(2000 + s);
      for (int t = 0; t < 12; ++t) loc.process_all(sim.sample_time_step(noise));
      double best = 1e18;
      for (const auto& e : loc.estimate()) best = std::min(best, distance(e.pos, truth[0].pos));
      return best;
    };
    const double blind = run(false);
    const double aware = run(true);
    EXPECT_LT(aware, 12.0) << "seed " << s;
    EXPECT_LE(aware, 2.0 * blind + 2.0) << "seed " << s;  // knowing the wall never hurts much
    blind_found += blind < 25.0 ? 1 : 0;
  }
  EXPECT_GE(4 * blind_found, kSeeds) << "blind mode found the source on " << blind_found
                                     << " of " << kSeeds << " seeds";
}

}  // namespace
}  // namespace radloc
