#include <gtest/gtest.h>

#include <algorithm>

#include "radloc/adaptive/planner.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace radloc {
namespace {

struct World {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;

  World() {
    sensors = place_grid(env.bounds(), 6, 6);
    set_background(sensors, 5.0);
  }
};

TEST(AdaptivePlanner, ScoresEverySensorSorted) {
  World w;
  FusionParticleFilter filter(w.env, w.sensors, FilterConfig{}, Rng(1));
  AdaptiveSensingPlanner planner;
  const auto scores = planner.score_sensors(filter);
  ASSERT_EQ(scores.size(), w.sensors.size());
  for (std::size_t i = 0; i + 1 < scores.size(); ++i) {
    EXPECT_GE(scores[i].score, scores[i + 1].score);
  }
  for (const auto& s : scores) EXPECT_GE(s.score, 0.0);
}

TEST(AdaptivePlanner, UniformPriorEverySensorInformative) {
  // With a fresh uniform particle cloud, every sensor has hypotheses that
  // disagree about its reading, so every score is positive.
  World w;
  FusionParticleFilter filter(w.env, w.sensors, FilterConfig{}, Rng(2));
  AdaptiveSensingPlanner planner;
  for (const auto& s : planner.score_sensors(filter)) {
    EXPECT_GT(s.score, 0.0) << "sensor " << s.sensor;
  }
}

TEST(AdaptivePlanner, ConvergedPosteriorPrefersSensorsNearTheCluster) {
  // After convergence on one source, sensors near the source see the
  // largest hypothesis spread (position/strength still uncertain there),
  // while remote sensors' predictions all agree on "background". Over 20
  // seeds, the planner's top-4 picks must lie within the fusion range + 10
  // of the source more often than the sensors do as a whole (15 of 36).
  World w;
  const std::vector<Source> truth{{{30, 30}, 60.0}};
  MeasurementSimulator sim(w.env, w.sensors, truth);
  const double reach = FilterConfig{}.fusion_range + 10.0;
  const auto near = [&](SensorId id) { return distance(w.sensors[id].pos, truth[0].pos) < reach; };
  std::size_t near_sensors = 0;
  for (SensorId id = 0; id < w.sensors.size(); ++id) near_sensors += near(id) ? 1 : 0;

  constexpr std::uint64_t kSeeds = 20;
  std::size_t picks = 0;
  std::size_t near_picks = 0;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) {
    FusionParticleFilter filter(w.env, w.sensors, FilterConfig{}, Rng(1000 + s));
    Rng noise(2000 + s);
    for (int t = 0; t < 10; ++t) {
      for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
    }
    const auto best = AdaptiveSensingPlanner().select(filter, 4);
    ASSERT_EQ(best.size(), 4u);
    picks += best.size();
    for (const auto id : best) near_picks += near(id) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(near_picks) / static_cast<double>(picks),
            static_cast<double>(near_sensors) / static_cast<double>(w.sensors.size()))
      << near_picks << " of " << picks << " picks near the source";
}

TEST(AdaptivePlanner, SelectRespectsBudget) {
  World w;
  FusionParticleFilter filter(w.env, w.sensors, FilterConfig{}, Rng(5));
  AdaptiveSensingPlanner planner;
  EXPECT_EQ(planner.select(filter, 3).size(), 3u);
  EXPECT_EQ(planner.select(filter, 0).size(), 0u);
  EXPECT_EQ(planner.select(filter, 999).size(), w.sensors.size());
}

TEST(AdaptivePlanner, AdaptivePollingBeatsRoundRobinAtEqualBudget) {
  // Poll only 6 of 36 sensors per step. Adaptive selection should localize
  // at least as well as a fixed round-robin schedule.
  World w;
  const std::vector<Source> truth{{{47, 71}, 30.0}, {{81, 42}, 30.0}};
  MeasurementSimulator sim(w.env, w.sensors, truth);

  auto run = [&](bool adaptive) {
    MultiSourceLocalizer loc(w.env, w.sensors, LocalizerConfig{}, 6);
    AdaptiveSensingPlanner planner;
    Rng noise(7);
    std::size_t rr = 0;
    for (int t = 0; t < 30; ++t) {
      std::vector<SensorId> poll;
      if (adaptive && t >= 3) {  // bootstrap with full coverage first
        poll = planner.select(loc.filter(), 6);
      } else if (t < 3) {
        for (SensorId i = 0; i < w.sensors.size(); ++i) poll.push_back(i);
      } else {
        for (int k = 0; k < 6; ++k) {
          poll.push_back(static_cast<SensorId>(rr++ % w.sensors.size()));
        }
      }
      for (const auto id : poll) loc.process(sim.sample(noise, id));
    }
    const auto match = match_estimates(truth, loc.estimate());
    return std::pair{match.mean_error(), match.false_negatives};
  };

  const auto [err_adaptive, fn_adaptive] = run(true);
  const auto [err_rr, fn_rr] = run(false);
  EXPECT_LE(fn_adaptive, fn_rr);
  if (fn_adaptive == fn_rr) {
    EXPECT_LT(err_adaptive, err_rr + 3.0);  // at least comparable accuracy
  }
}

TEST(AdaptivePlanner, StrideKeepsRankingStable) {
  // Coarse particle subsampling must preserve the broad ranking: the top
  // pick with full evaluation stays in the top quarter with stride.
  World w;
  const std::vector<Source> truth{{{30, 30}, 60.0}};
  MeasurementSimulator sim(w.env, w.sensors, truth);
  FusionParticleFilter filter(w.env, w.sensors, FilterConfig{}, Rng(8));
  Rng noise(9);
  for (int t = 0; t < 8; ++t) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }

  AdaptivePlannerConfig full_cfg;
  full_cfg.max_particles_evaluated = 1u << 30;
  const auto full = AdaptiveSensingPlanner(full_cfg).score_sensors(filter);

  AdaptivePlannerConfig coarse_cfg;
  coarse_cfg.max_particles_evaluated = 128;
  const auto coarse = AdaptiveSensingPlanner(coarse_cfg).score_sensors(filter);

  const SensorId top = full.front().sensor;
  const auto it = std::find_if(coarse.begin(), coarse.end(),
                               [&](const SensorScore& s) { return s.sensor == top; });
  ASSERT_NE(it, coarse.end());
  EXPECT_LT(static_cast<std::size_t>(it - coarse.begin()), coarse.size() / 3);
}

}  // namespace
}  // namespace radloc
