// Deterministic stress harness for the fusion filter ingestion path.
//
// Drives FusionParticleFilter / MultiSourceLocalizer through seeded
// randomized episodes — hostile delivery stacks, obstacles, moving
// hypotheses, extreme CPM values, malformed input — asserting the filter's
// standing invariants after every single measurement:
//   * weights are finite, non-negative, and sum to 1 (total mass conserved),
//   * positions stay inside the surveillance bounds,
//   * strengths stay finite inside the configured prior range.
// Every episode is fully determined by its seed; failures reproduce exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "radloc/core/localizer.hpp"
#include "radloc/filter/movement.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/geom/polygon.hpp"
#include "radloc/sensornet/delivery.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/sensornet/validation.hpp"

namespace radloc {
namespace {

constexpr double kMassTolerance = 1e-9;

void expect_filter_invariants(const FusionParticleFilter& filter, const char* context) {
  SCOPED_TRACE(context);
  const AreaBounds& bounds = filter.environment().bounds();
  const FilterConfig& cfg = filter.config();
  double mass = 0.0;
  for (std::size_t i = 0; i < filter.size(); ++i) {
    const double w = filter.weights()[i];
    ASSERT_TRUE(std::isfinite(w)) << "weight " << i << " not finite: " << w;
    ASSERT_GE(w, 0.0) << "weight " << i << " negative";
    mass += w;
    const Point2& p = filter.positions()[i];
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << "position " << i << " not finite";
    ASSERT_TRUE(bounds.contains(p)) << "position " << i << " escaped bounds";
    const double s = filter.strengths()[i];
    ASSERT_TRUE(std::isfinite(s)) << "strength " << i << " not finite";
    ASSERT_GE(s, cfg.strength_min);
    ASSERT_LE(s, cfg.strength_max);
  }
  ASSERT_NEAR(mass, 1.0, kMassTolerance) << "total weight mass drifted";
  ASSERT_TRUE(std::isfinite(filter.effective_sample_size()));
}

Environment make_episode_environment(std::uint64_t seed) {
  std::vector<Obstacle> obstacles;
  if (seed % 2 == 1) {
    obstacles.emplace_back(make_rect(40.0, 20.0, 46.0, 80.0), 0.0693);
    obstacles.emplace_back(make_rect(60.0, 0.0, 66.0, 40.0), 0.2);
  }
  return Environment(make_area(100.0, 100.0), std::move(obstacles));
}

std::unique_ptr<DeliveryModel> make_episode_delivery(std::uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return std::make_unique<InOrderDelivery>();
    case 1:
      return std::make_unique<ShuffledDelivery>();
    case 2:
      return std::make_unique<LossyDelivery>(0.3, std::make_unique<ShuffledDelivery>());
    default:
      return std::make_unique<LossyDelivery>(0.2,
                                             std::make_unique<RandomLatencyDelivery>(2.0));
  }
}

FilterConfig make_episode_config(std::uint64_t seed) {
  FilterConfig cfg;
  cfg.num_particles = 512;
  if (seed % 2 == 1) {
    cfg.use_known_obstacles = true;
    cfg.use_transmission_cache = (seed % 3 == 0);
  }
  return cfg;
}

// One full episode: simulate a two-source world, push every delivered
// measurement through the filter, check invariants after each iteration and
// drain the stragglers at the end.
void run_episode(std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "episode seed " << seed);
  const Environment env = make_episode_environment(seed);
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);
  const std::vector<Source> sources{{{25.0, 70.0}, 120.0}, {{75.0, 30.0}, 60.0}};
  MeasurementSimulator sim(env, sensors, sources);

  FusionParticleFilter filter(env, sensors, make_episode_config(seed), Rng(seed));
  if (seed % 3 == 1) {
    filter.set_movement_model(std::make_unique<RandomWalkMovement>(0.5));
  }
  auto delivery = make_episode_delivery(seed);

  Rng world(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int step = 0; step < 25; ++step) {
    for (const Measurement& m : delivery->deliver(world, sim.sample_time_step(world))) {
      (void)filter.process(m);
      expect_filter_invariants(filter, "after process");
    }
  }
  for (const Measurement& m : delivery->drain(world)) {
    (void)filter.process(m);
  }
  expect_filter_invariants(filter, "after drain");
  EXPECT_EQ(filter.validator().rejected(), 0u);  // the episode feed is well-formed
}

TEST(StressFilter, SeededEpisodesPreserveInvariants) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 6u, 9u}) run_episode(seed);
}

TEST(StressFilter, LocalizerEpisodeEstimatesStayPhysical) {
  const Environment env(make_area(100.0, 100.0));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);
  MeasurementSimulator sim(env, sensors, {{{30.0, 30.0}, 150.0}});

  LocalizerConfig cfg;
  cfg.filter.num_particles = 512;
  MultiSourceLocalizer loc(env, sensors, cfg, /*seed=*/17);
  Rng world(99);
  for (int step = 0; step < 30; ++step) {
    for (const Measurement& m : sim.sample_time_step(world)) loc.process(m);
    if (step % 10 == 9) {
      for (const SourceEstimate& e : loc.estimate()) {
        EXPECT_TRUE(env.bounds().contains(e.pos));
        EXPECT_TRUE(std::isfinite(e.strength));
        EXPECT_GT(e.strength, 0.0);
        EXPECT_GE(e.support, 0.0);
        EXPECT_LE(e.support, 1.0 + 1e-9);
      }
      expect_filter_invariants(loc.filter(), "after estimate");
    }
  }
}

TEST(StressFilter, ExtremeCpmValuesKeepStateFinite) {
  const Environment env(make_area(100.0, 100.0));
  auto sensors = place_grid(env.bounds(), 3, 3);
  set_background(sensors, 5.0);
  FilterConfig cfg;
  cfg.num_particles = 256;
  FusionParticleFilter filter(env, sensors, cfg, Rng(7));

  const double extremes[] = {0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1e-300,
                             1.0,
                             1e6,
                             1e15,
                             1e308};
  const SensorResponse response{kDefaultEfficiency, 5.0};
  for (const double cpm : extremes) {
    SCOPED_TRACE(::testing::Message() << "cpm = " << cpm);
    (void)filter.process_reading({50.0, 50.0}, response, cpm);
    expect_filter_invariants(filter, "after extreme reading");
  }
}

// ---------------------------------------------------------------- semantics
// The degenerate-update early returns, pinned (see particle_filter.hpp).

TEST(StressFilter, EmptyFusionDiskIsACompleteNoOp) {
  const Environment env(make_area(100.0, 100.0));
  FilterConfig cfg;
  cfg.num_particles = 128;
  FusionParticleFilter filter(env, {}, cfg, Rng(3));
  filter.set_movement_model(std::make_unique<RandomWalkMovement>(2.0));

  const std::vector<Point2> before_pos(filter.positions().begin(), filter.positions().end());
  const std::vector<double> before_w(filter.weights().begin(), filter.weights().end());

  // Far outside the area: the fusion disk selects nothing, so not even the
  // predict step runs — the movement model must not have touched anything.
  EXPECT_EQ(filter.process_reading({1e6, 1e6}, SensorResponse{kDefaultEfficiency, 5.0}, 10.0),
            0u);
  EXPECT_EQ(filter.iteration(), 1u);
  for (std::size_t i = 0; i < filter.size(); ++i) {
    ASSERT_EQ(filter.positions()[i], before_pos[i]);
    ASSERT_EQ(filter.weights()[i], before_w[i]);
  }
}

TEST(StressFilter, DegenerateUpdatePredictsButSkipsWeightUpdate) {
  const Environment env(make_area(100.0, 100.0));
  FilterConfig cfg;
  cfg.num_particles = 128;
  cfg.fusion_range = 200.0;  // every particle selected
  FusionParticleFilter filter(env, {}, cfg, Rng(3));
  filter.set_movement_model(std::make_unique<RandomWalkMovement>(2.0));

  const std::vector<Point2> before_pos(filter.positions().begin(), filter.positions().end());
  const std::vector<double> before_w(filter.weights().begin(), filter.weights().end());

  // cpm = 1e308 overflows log(cpm!), driving every log-likelihood to -inf:
  // the measurement is impossible for all hypotheses and the update is
  // skipped — but the predict step has already evolved the selected
  // particles. That is the documented contract.
  EXPECT_EQ(filter.process_reading({50.0, 50.0}, SensorResponse{kDefaultEfficiency, 5.0}, 1e308),
            0u);
  EXPECT_EQ(filter.iteration(), 1u);

  std::size_t moved = 0;
  for (std::size_t i = 0; i < filter.size(); ++i) {
    ASSERT_EQ(filter.weights()[i], before_w[i]) << "weights must be untouched on a skip";
    if (!(filter.positions()[i] == before_pos[i])) ++moved;
  }
  EXPECT_GT(moved, 0u) << "predict must have run before the update was skipped";
  expect_filter_invariants(filter, "after degenerate update");
}

// --------------------------------------------------------------- validation
// The ingestion choke point: malformed readings are named, counted, and
// rejected without touching filter state.

TEST(StressFilter, ValidationChokePointNamesAndCountsFaults) {
  const Environment env(make_area(100.0, 100.0));
  auto sensors = place_grid(env.bounds(), 2, 2);
  FilterConfig cfg;
  cfg.num_particles = 64;
  FusionParticleFilter filter(env, sensors, cfg, Rng(11));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_EQ(filter.try_process({99, 10.0}), ReadingFault::kUnknownSensor);
  EXPECT_EQ(filter.try_process({0, nan}), ReadingFault::kNonFiniteCpm);
  EXPECT_EQ(filter.try_process({0, inf}), ReadingFault::kNonFiniteCpm);
  EXPECT_EQ(filter.try_process({0, -1.0}), ReadingFault::kNegativeCpm);
  EXPECT_EQ(filter.iteration(), 0u) << "rejected readings must not consume an iteration";

  EXPECT_THROW((void)filter.process({99, 10.0}), std::invalid_argument);
  EXPECT_THROW((void)filter.process({2, inf}), std::invalid_argument);
  EXPECT_THROW((void)filter.process_reading({nan, 50.0}, SensorResponse{}, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)filter.process_reading({50.0, 50.0}, SensorResponse{}, -2.0),
               std::invalid_argument);

  EXPECT_EQ(filter.try_process({1, 12.0}), ReadingFault::kNone);
  EXPECT_EQ(filter.iteration(), 1u);

  const MeasurementValidator& v = filter.validator();
  EXPECT_EQ(v.count(ReadingFault::kUnknownSensor), 2u);
  EXPECT_EQ(v.count(ReadingFault::kNonFiniteCpm), 3u);
  EXPECT_EQ(v.count(ReadingFault::kNegativeCpm), 2u);
  EXPECT_EQ(v.count(ReadingFault::kNonFinitePosition), 1u);
  EXPECT_EQ(v.accepted(), 1u);
  EXPECT_EQ(v.rejected(), 8u);
}

TEST(StressFilter, LocalizerTryProcessToleratesMalformedFeed) {
  const Environment env(make_area(100.0, 100.0));
  auto sensors = place_grid(env.bounds(), 3, 3);
  set_background(sensors, 5.0);
  MeasurementSimulator sim(env, sensors, {{{50.0, 50.0}, 80.0}});

  LocalizerConfig cfg;
  cfg.filter.num_particles = 256;
  MultiSourceLocalizer loc(env, sensors, cfg, /*seed=*/23);

  Rng world(42);
  std::size_t rejects = 0;
  for (int step = 0; step < 10; ++step) {
    for (Measurement m : sim.sample_time_step(world)) {
      // A hostile feed: every few readings are corrupted in transit.
      if (step % 3 == 0 && m.sensor % 4 == 0) {
        m.cpm = (m.sensor % 8 == 0) ? std::numeric_limits<double>::quiet_NaN() : -5.0;
      }
      if (loc.try_process(m) != ReadingFault::kNone) ++rejects;
    }
  }
  EXPECT_GT(rejects, 0u);
  EXPECT_EQ(loc.filter().validator().rejected(), rejects);
  expect_filter_invariants(loc.filter(), "after hostile feed");
  for (const SourceEstimate& e : loc.estimate()) {
    EXPECT_TRUE(env.bounds().contains(e.pos));
  }
}

}  // namespace
}  // namespace radloc
