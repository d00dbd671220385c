#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {
namespace {

Environment test_env() { return Environment(make_area(100, 100)); }

std::vector<Sensor> test_sensors(const Environment& env, double bg = 5.0) {
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, bg);
  return sensors;
}

FilterConfig small_config() {
  FilterConfig cfg;
  cfg.num_particles = 1500;
  return cfg;
}

TEST(SystematicResample, ProportionalAllocation) {
  Rng rng(1);
  const std::vector<double> weights{0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  constexpr int rounds = 200;
  constexpr std::size_t draws = 100;
  for (int r = 0; r < rounds; ++r) {
    for (const auto i : systematic_resample(rng, weights, draws)) ++counts[i];
  }
  const double total = rounds * draws;
  EXPECT_NEAR(counts[0] / total, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / total, 0.6, 0.01);
  EXPECT_NEAR(counts[2] / total, 0.3, 0.01);
}

TEST(SystematicResample, OutputSortedAndSized) {
  Rng rng(2);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const auto picks = systematic_resample(rng, weights, 57);
  EXPECT_EQ(picks.size(), 57u);
  EXPECT_TRUE(std::is_sorted(picks.begin(), picks.end()));
}

TEST(SystematicResample, DegenerateWeightConcentrates) {
  Rng rng(3);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (const auto i : systematic_resample(rng, weights, 20)) EXPECT_EQ(i, 1u);
}

TEST(SystematicResample, RejectsZeroTotal) {
  Rng rng(4);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW((void)systematic_resample(rng, weights, 5), std::invalid_argument);
}

TEST(SystematicResample, ZeroCountIsEmpty) {
  Rng rng(5);
  const std::vector<double> weights{1.0};
  EXPECT_TRUE(systematic_resample(rng, weights, 0).empty());
}

TEST(SystematicResample, RejectsNonFiniteAndNegativeWeights) {
  // Before the guard these slipped through silently: a NaN poisons the
  // running total and the comparison `cumulative < pointer` is false for
  // every NaN, so picks collapse onto whatever index the scan stalls at.
  Rng rng(6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad{
      {0.5, nan, 0.5}, {nan}, {1.0, inf}, {1.0, -0.25, 1.0}};
  for (const auto& weights : bad) {
    EXPECT_THROW((void)systematic_resample(rng, weights, 8), std::invalid_argument);
  }
}

TEST(SystematicResample, ZeroPrefixAndSuffixAreNeverPicked) {
  // Leading zeros: the cursor must start at the first positive weight, and
  // trailing zeros must be unreachable even when the final stratified
  // pointer lands at (or, through rounding, just past) the total mass.
  Rng rng(7);
  const std::vector<double> weights{0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0};
  for (int round = 0; round < 50; ++round) {
    for (const auto i : systematic_resample(rng, weights, 64)) {
      ASSERT_GE(i, 3u);
      ASSERT_LE(i, 4u);
    }
  }
}

TEST(SystematicResample, TinyWeightsDoNotEscapeTheSupport) {
  // Denormal-scale totals stress the pointer>total rounding edge: every
  // pick must still carry strictly positive weight.
  Rng rng(8);
  std::vector<double> weights(40, 0.0);
  weights[12] = std::numeric_limits<double>::denorm_min();
  weights[31] = std::numeric_limits<double>::denorm_min();
  for (const auto i : systematic_resample(rng, weights, 100)) {
    ASSERT_TRUE(i == 12u || i == 31u);
  }
}

TEST(FusionFilter, InitializationIsUniform) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(7));

  EXPECT_EQ(filter.size(), 1500u);
  const double total = std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Quadrant occupancy roughly equal for a uniform init.
  int quads[4] = {0, 0, 0, 0};
  for (const auto& p : filter.positions()) {
    EXPECT_TRUE(env.bounds().contains(p));
    quads[(p.x > 50.0 ? 1 : 0) + (p.y > 50.0 ? 2 : 0)]++;
  }
  for (const int q : quads) EXPECT_NEAR(q, 375, 120);

  for (const double s : filter.strengths()) {
    EXPECT_GE(s, filter.config().strength_min);
    EXPECT_LE(s, filter.config().strength_max);
  }
}

TEST(FusionFilter, ConfigValidation) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();

  cfg.num_particles = 0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.fusion_range = 0.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.random_replacement_frac = 1.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.strength_min = -1.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  // Empty sensor list is allowed (mobile-detector mode)...
  FusionParticleFilter sensorless(env, {}, small_config(), Rng(1));
  // ...but then only process_reading() works; sensor ids all throw.
  EXPECT_THROW((void)sensorless.process({0, 5.0}), std::invalid_argument);
  EXPECT_GT(sensorless.process_reading({50, 50}, SensorResponse{kDefaultEfficiency, 5.0}, 7.0),
            0u);
}

TEST(FusionFilter, RejectsBadMeasurements) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(7));
  EXPECT_THROW((void)filter.process({999, 5.0}), std::invalid_argument);
  EXPECT_THROW((void)filter.process({0, -1.0}), std::invalid_argument);
}

TEST(FusionFilter, FusionRangeLimitsUpdate) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(8));

  // Snapshot particles far from sensor 0 (at (0,0)).
  const double d = filter.config().fusion_range;
  std::vector<std::pair<Point2, double>> far_before;
  std::vector<std::size_t> far_idx;
  for (std::size_t i = 0; i < filter.size(); ++i) {
    if (distance(filter.positions()[i], sensors[0].pos) > d) {
      far_idx.push_back(i);
      far_before.emplace_back(filter.positions()[i], filter.strengths()[i]);
    }
  }
  ASSERT_FALSE(far_idx.empty());

  const std::size_t touched = filter.process({0, 20.0});
  EXPECT_GT(touched, 0u);
  EXPECT_LT(touched, filter.size());

  // Particles outside the fusion range kept identical state.
  for (std::size_t k = 0; k < far_idx.size(); ++k) {
    const auto i = far_idx[k];
    EXPECT_EQ(filter.positions()[i], far_before[k].first);
    EXPECT_DOUBLE_EQ(filter.strengths()[i], far_before[k].second);
  }
}

TEST(FusionFilter, WeightsStayNormalized) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(9));
  MeasurementSimulator sim(env, sensors, {{{47, 71}, 10.0}});
  Rng noise(10);
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      (void)filter.process(m);
      const double total =
          std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
      ASSERT_NEAR(total, 1.0, 1e-6);
    }
  }
}

TEST(FusionFilter, ParticlesStayInBounds) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(11));
  MeasurementSimulator sim(env, sensors, {{{5, 5}, 100.0}});
  Rng noise(12);
  for (int step = 0; step < 5; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  for (const auto& p : filter.positions()) EXPECT_TRUE(env.bounds().contains(p));
  for (const double s : filter.strengths()) {
    EXPECT_GE(s, filter.config().strength_min);
    EXPECT_LE(s, filter.config().strength_max);
  }
}

/// Weighted particle mass within `radius` of `center`.
double mass_near(const FusionParticleFilter& f, const Point2& center, double radius) {
  double m = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (distance(f.positions()[i], center) <= radius) m += f.weights()[i];
  }
  return m;
}

TEST(FusionFilter, ConvergesOnSingleSource) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  const Point2 src_pos{47, 71};
  MeasurementSimulator sim(env, sensors, {{src_pos, 50.0}});
  FusionParticleFilter filter(env, sensors, small_config(), Rng(13));

  Rng noise(14);
  const double before = mass_near(filter, src_pos, 15.0);
  for (int step = 0; step < 10; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  const double after = mass_near(filter, src_pos, 15.0);
  EXPECT_GT(after, 0.25);
  EXPECT_GT(after, before * 2.0);
}

TEST(FusionFilter, TracksTwoSourcesSimultaneously) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  const Point2 a{47, 71};
  const Point2 b{81, 42};
  MeasurementSimulator sim(env, sensors, {{a, 50.0}, {b, 50.0}});
  FilterConfig cfg = small_config();
  cfg.num_particles = 2000;
  FusionParticleFilter filter(env, sensors, cfg, Rng(15));

  Rng noise(16);
  for (int step = 0; step < 12; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  // Both sources hold substantial particle mass — the fusion range prevents
  // the all-mass-on-one-source collapse of Fig. 2.
  EXPECT_GT(mass_near(filter, a, 15.0), 0.05);
  EXPECT_GT(mass_near(filter, b, 15.0), 0.05);
}

TEST(FusionFilter, ExtremeReadingKeepsStateFinite) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(17));

  // A wildly implausible (but finite) reading: likelihoods underflow for
  // nearly every hypothesis; the filter must stay normalized and finite.
  (void)filter.process({0, 1e12});
  double total = 0.0;
  for (const double w : filter.weights()) {
    ASSERT_TRUE(std::isfinite(w));
    ASSERT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(FusionFilter, NonFiniteReadingRejected) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(17));
  EXPECT_THROW((void)filter.process({0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW((void)filter.process({0, std::nan("")}), std::invalid_argument);
}

TEST(FusionFilter, RandomReplacementRepopulatesEmptyRegions) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();
  cfg.random_replacement_frac = 0.3;  // aggressive, to test the mechanism
  MeasurementSimulator sim(env, sensors, {{{20, 20}, 100.0}});
  FusionParticleFilter filter(env, sensors, cfg, Rng(18));
  Rng noise(19);
  for (int step = 0; step < 15; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  // Far corner must still hold some particles despite all evidence pointing
  // to (20,20) — fresh particles keep the area observable.
  int far_corner = 0;
  for (const auto& p : filter.positions()) {
    if (p.x > 70.0 && p.y > 70.0) ++far_corner;
  }
  EXPECT_GT(far_corner, 0);
}

TEST(FusionFilter, EffectiveSampleSizeBounded) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(20));
  const double ess0 = filter.effective_sample_size();
  EXPECT_NEAR(ess0, 1500.0, 1.0);  // uniform weights -> ESS = N

  MeasurementSimulator sim(env, sensors, {{{50, 50}, 20.0}});
  Rng noise(21);
  for (int step = 0; step < 5; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  const double ess = filter.effective_sample_size();
  EXPECT_GT(ess, 1.0);
  EXPECT_LE(ess, 1500.0 + 1e-9);
}

TEST(FusionFilter, MovementModelHookRuns) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(22));
  filter.set_movement_model(std::make_unique<RandomWalkMovement>(2.0));
  EXPECT_THROW(filter.set_movement_model(nullptr), std::invalid_argument);

  // With a random-walk model, processing must still keep invariants.
  MeasurementSimulator sim(env, sensors, {{{50, 50}, 20.0}});
  Rng noise(23);
  for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  const double total = std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (const auto& p : filter.positions()) EXPECT_TRUE(env.bounds().contains(p));
}

TEST(FusionFilter, ParticlesAccessorMatchesSoA) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(24));
  const auto particles = filter.particles();
  ASSERT_EQ(particles.size(), filter.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].pos, filter.positions()[i]);
    EXPECT_DOUBLE_EQ(particles[i].strength, filter.strengths()[i]);
    EXPECT_DOUBLE_EQ(particles[i].weight, filter.weights()[i]);
  }
}

TEST(FusionFilter, DeterministicForSameSeed) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter f1(env, sensors, small_config(), Rng(25));
  FusionParticleFilter f2(env, sensors, small_config(), Rng(25));
  MeasurementSimulator sim(env, sensors, {{{47, 71}, 10.0}});
  Rng noise(26);
  const auto batch = sim.sample_time_step(noise);
  for (const auto& m : batch) {
    (void)f1.process(m);
    (void)f2.process(m);
  }
  for (std::size_t i = 0; i < f1.size(); ++i) {
    ASSERT_EQ(f1.positions()[i], f2.positions()[i]);
    ASSERT_DOUBLE_EQ(f1.weights()[i], f2.weights()[i]);
  }
}

TEST(FusionFilter, IterationCounterAdvances) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(27));
  EXPECT_EQ(filter.iteration(), 0u);
  (void)filter.process({0, 5.0});
  (void)filter.process({1, 5.0});
  EXPECT_EQ(filter.iteration(), 2u);
}

TEST(FusionFilter, KnownObstacleModeChangesLikelihood) {
  // With use_known_obstacles the filter should converge even when a wall
  // blocks most sensors' view — it models the attenuation explicitly.
  Environment env(make_area(100, 100), {Obstacle(make_rect(30, 0, 34, 100), 0.2)});
  auto sensors = test_sensors(env, 5.0);

  FilterConfig cfg = small_config();
  cfg.use_known_obstacles = true;
  FusionParticleFilter aware(env, sensors, cfg, Rng(28));
  cfg.use_known_obstacles = false;
  FusionParticleFilter naive(env, sensors, cfg, Rng(28));

  MeasurementSimulator sim(env, sensors, {{{15, 50}, 100.0}});
  Rng noise(29);
  for (int step = 0; step < 10; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      (void)aware.process(m);
      (void)naive.process(m);
    }
  }
  // Both should find the source; the aware filter at least as well.
  const double aware_mass = mass_near(aware, {15, 50}, 15.0);
  EXPECT_GT(aware_mass, 0.2);
}

/// Bitwise double equality: unlike ==, tells -0 from +0 and matches NaNs.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(FusionFilter, LocalizerEstimatesBitIdenticalAcrossThreadCounts) {
  // The determinism contract over the public entry point. Readings apply on
  // the calling thread; the borrowed pool fans out only mean-shift's ascents
  // and basin-support chunks, and neither may let the pool's size reach the
  // particles or the estimates. Each rate mode (free space, exact known
  // obstacles) runs at the scalar tier and at the host's detected tier, on
  // pools built with forced fan-out so the queued dispatch path runs even
  // on single-core hosts.
  struct Mode {
    const char* name;
    bool obstacles;
  };
  Environment env(make_area(100, 100), {Obstacle(make_u_shape(38, 35, 62, 60, 2.0), 0.2)});
  const auto sensors = test_sensors(env);
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::detected_tier() != simd::Tier::kScalar) tiers.push_back(simd::detected_tier());

  for (const Mode mode : {Mode{"free", false}, Mode{"exact", true}}) {
    for (const simd::Tier tier : tiers) {
      SCOPED_TRACE(::testing::Message() << mode.name << ", " << simd::tier_name(tier));
      simd::force_tier(tier);
      LocalizerConfig cfg;
      cfg.filter.num_particles = 1500;
      cfg.filter.use_known_obstacles = mode.obstacles;

      struct Run {
        std::size_t threads;
        std::vector<Point2> positions;
        std::vector<double> strengths;
        std::vector<double> weights;
        std::vector<SourceEstimate> estimates;
      };
      std::vector<Run> runs;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        ThreadPool pool(threads, /*max_fanout=*/threads);
        MultiSourceLocalizer loc(env, sensors, cfg, /*seed=*/45, &pool);
        MeasurementSimulator sim(env, sensors, {{{47, 71}, 40.0}, {{81, 42}, 40.0}});
        Rng noise(46);
        for (int step = 0; step < 5; ++step) loc.process_all(sim.sample_time_step(noise));
        const FusionParticleFilter& f = loc.filter();
        runs.push_back(Run{threads,
                           {f.positions().begin(), f.positions().end()},
                           {f.strengths().begin(), f.strengths().end()},
                           {f.weights().begin(), f.weights().end()},
                           loc.estimate()});
      }
      simd::reset_tier();

      const Run& ref = runs.front();
      EXPECT_FALSE(ref.estimates.empty());
      for (std::size_t r = 1; r < runs.size(); ++r) {
        const Run& run = runs[r];
        SCOPED_TRACE(::testing::Message() << run.threads << " threads");
        ASSERT_EQ(ref.weights.size(), run.weights.size());
        for (std::size_t i = 0; i < ref.weights.size(); ++i) {
          ASSERT_TRUE(same_bits(ref.weights[i], run.weights[i])) << "i=" << i;
          ASSERT_TRUE(same_bits(ref.positions[i].x, run.positions[i].x)) << "i=" << i;
          ASSERT_TRUE(same_bits(ref.positions[i].y, run.positions[i].y)) << "i=" << i;
          ASSERT_TRUE(same_bits(ref.strengths[i], run.strengths[i])) << "i=" << i;
        }
        ASSERT_EQ(ref.estimates.size(), run.estimates.size());
        for (std::size_t k = 0; k < ref.estimates.size(); ++k) {
          EXPECT_TRUE(same_bits(ref.estimates[k].pos.x, run.estimates[k].pos.x)) << "k=" << k;
          EXPECT_TRUE(same_bits(ref.estimates[k].pos.y, run.estimates[k].pos.y)) << "k=" << k;
          EXPECT_TRUE(same_bits(ref.estimates[k].strength, run.estimates[k].strength))
              << "k=" << k;
          EXPECT_TRUE(same_bits(ref.estimates[k].support, run.estimates[k].support))
              << "k=" << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Default-path golden, ESS-gated resampling, fused same-sensor updates

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the full particle state (positions, strengths, weights).
std::uint64_t state_fingerprint(const FusionParticleFilter& f) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto pos = f.positions();
  const auto str = f.strengths();
  const auto w = f.weights();
  h = fnv1a(h, pos.data(), pos.size() * sizeof(Point2));
  h = fnv1a(h, str.data(), str.size_bytes());
  h = fnv1a(h, w.data(), w.size_bytes());
  return h;
}

/// Feeds three sweeps of scenario A through `filter` and returns its state
/// fingerprint. Every reading's |P'| must be 0 (a degenerate update) or the
/// brute-force count of particles within the fusion range just before it,
/// so a stale spatial index cannot hide behind a matching fingerprint.
std::uint64_t run_golden_sweeps(FusionParticleFilter& filter, const Scenario& sc) {
  MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  Rng sim_rng(7);
  const double r2 = filter.config().fusion_range * filter.config().fusion_range;
  for (int step = 0; step < 3; ++step) {
    for (const Measurement& m : sim.sample_time_step(sim_rng)) {
      const Point2 at = sc.sensors[m.sensor].pos;
      const auto positions = filter.positions();
      const auto in_range = static_cast<std::size_t>(std::count_if(
          positions.begin(), positions.end(),
          [&](const Point2& p) { return distance2(p, at) <= r2; }));
      const std::size_t updated = filter.process(m);
      EXPECT_TRUE(updated == 0 || updated == in_range)
          << "sensor " << m.sensor << ": |P'| " << updated << " vs " << in_range << " in range";
    }
  }
  return state_fingerprint(filter);
}

TEST(FusionFilter, DefaultPathMatchesGolden) {
  // Fingerprints of scenario A, three sweeps, fixed seeds, for the static
  // path and the random-walk path (whose predict step moves the fusion
  // subset before it is rescored). Both were captured at the commit after
  // 71e7fa5, which introduced per-reading random streams, the ziggurat
  // normal sampler, the one-pass local resample and the slotted particle
  // index. The test pins determinism, not the seed's numbers: any change to
  // the per-reading path (selection, predict, rates, Poisson scoring,
  // resample, index upkeep) shows up here, and a deliberate one re-captures
  // both values. The same two values hold at every SIMD tier from scalar to
  // the detected (default) one: the tier's log/exp rounding reaches only
  // the resample's picks, never a slot's value, and no pick flips here
  // (DESIGN.md §5.7).
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    const auto tier = static_cast<simd::Tier>(t);
    simd::force_tier(tier);
    const Scenario sc = make_scenario_a(10.0);
    FilterConfig cfg;
    cfg.num_particles = 600;
    cfg.fusion_range = sc.recommended_fusion_range;
    FusionParticleFilter still(sc.env, sc.sensors, cfg, Rng(42));
    const std::uint64_t h_static = run_golden_sweeps(still, sc);
    FusionParticleFilter walking(sc.env, sc.sensors, cfg, Rng(42));
    walking.set_movement_model(std::make_unique<RandomWalkMovement>(1.0));
    const std::uint64_t h_walk = run_golden_sweeps(walking, sc);
    simd::reset_tier();
    EXPECT_EQ(h_static, 0x2ccff47c01c490d8ULL)
        << "default filter path drifted at " << simd::tier_name(tier);
    EXPECT_EQ(still.resamples_skipped(), 0u);
    EXPECT_EQ(h_walk, 0x659a470e54e7ec42ULL)
        << "random-walk filter path drifted at " << simd::tier_name(tier);
    EXPECT_GT(walking.resamples_performed(), 0u);
  }
}

/// A filter of one shape and the readings it is fed: `steps` sweeps of the
/// scenario's sensors at NP `particles`.
struct ShapedRun {
  Scenario sc;
  FilterConfig cfg;
  std::vector<Measurement> feed;

  ShapedRun(Scenario scenario, std::size_t particles, int steps) : sc(std::move(scenario)) {
    cfg.num_particles = particles;
    cfg.fusion_range = sc.recommended_fusion_range;
    MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
    Rng noise(31);
    for (int t = 0; t < steps; ++t) {
      for (const Measurement& m : sim.sample_time_step(noise)) feed.push_back(m);
    }
  }
  [[nodiscard]] FusionParticleFilter make_filter() const {
    return FusionParticleFilter(sc.env, sc.sensors, cfg, Rng(5));
  }
  [[nodiscard]] std::uint64_t solo() const {
    FusionParticleFilter f = make_filter();
    for (const Measurement& m : feed) (void)f.process(m);
    return state_fingerprint(f);
  }
};

// Every filter on a thread shares that thread's per-reading scratch.
// Scenario A at NP 2000 and Scenario C at NP 15000 differ in index cell
// count (64 vs 289) and subset size, so any state the scratch carried from
// one reading to the next (the resampler's cell heads above all) would
// change one of them.
TEST(ReadingScratch, InterleavedFiltersOfDifferentShapesMatchSoloRuns) {
  const ShapedRun a(make_scenario_a(10.0), 2000, 3);
  const ShapedRun c(make_scenario_c(), 15000, 1);
  FusionParticleFilter fa = a.make_filter();
  FusionParticleFilter fc = c.make_filter();
  for (std::size_t k = 0; k < std::max(a.feed.size(), c.feed.size()); ++k) {
    if (k < a.feed.size()) (void)fa.process(a.feed[k]);
    if (k < c.feed.size()) (void)fc.process(c.feed[k]);
  }
  EXPECT_EQ(state_fingerprint(fa), a.solo());
  EXPECT_EQ(state_fingerprint(fc), c.solo());
  EXPECT_GT(fa.resamples_performed(), 0u);
  EXPECT_GT(fc.resamples_performed(), 0u);
}

TEST(ReadingScratch, FiltersOnTwoThreadsMatchSoloRuns) {
  const ShapedRun a(make_scenario_a(10.0), 2000, 3);
  const ShapedRun c(make_scenario_c(), 15000, 1);
  std::uint64_t ha = 0;
  std::uint64_t hc = 0;
  {
    std::thread ta([&] { ha = a.solo(); });
    std::thread tc([&] { hc = c.solo(); });
    ta.join();
    tc.join();
  }
  EXPECT_EQ(ha, a.solo());
  EXPECT_EQ(hc, c.solo());
}

TEST(FusionFilter, IndexUpkeepRarelyRelaysOut) {
  // Re-filing a reading's moves borrows slack from nearby cells; a full
  // relayout of the particle index, O(NP), must stay rare: under 1% of
  // readings over 30 sweeps of scenario A.
  const Scenario sc = make_scenario_a(10.0);
  FilterConfig cfg;
  cfg.fusion_range = sc.recommended_fusion_range;
  FusionParticleFilter filter(sc.env, sc.sensors, cfg, Rng(17));
  MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  Rng sim_rng(18);
  for (int step = 0; step < 30; ++step) {
    for (const Measurement& m : sim.sample_time_step(sim_rng)) (void)filter.process(m);
  }
  EXPECT_LT(100 * filter.index_relayouts(), filter.iteration());
}

TEST(EssGate, RejectsInvalidThresholdAtConstruction) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();
  cfg.ess_resample_threshold = 0.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg.ess_resample_threshold = -0.5;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg.ess_resample_threshold = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg.ess_resample_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  // Any finite positive threshold is accepted; values above 1 always resample.
  cfg.ess_resample_threshold = 1e-6;
  EXPECT_NO_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)));
  cfg.ess_resample_threshold = 1.0;
  EXPECT_NO_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)));
}

TEST(EssGate, DefaultThresholdNeverSkipsBelowOneAlwaysDeterministic) {
  const Scenario sc = make_scenario_a(10.0);
  auto run = [&](double threshold) {
    FilterConfig cfg;
    cfg.num_particles = 600;
    cfg.fusion_range = sc.recommended_fusion_range;
    cfg.ess_resample_threshold = threshold;
    FusionParticleFilter filter(sc.env, sc.sensors, cfg, Rng(42));
    MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
    Rng sim_rng(7);
    for (int step = 0; step < 3; ++step) {
      for (const Measurement& m : sim.sample_time_step(sim_rng)) (void)filter.process(m);
    }
    return filter;
  };

  const auto gated_off = run(1.0);
  EXPECT_EQ(gated_off.resamples_skipped(), 0u);
  EXPECT_GT(gated_off.resamples_performed(), 0u);

  const auto gated = run(0.5);
  EXPECT_GT(gated.resamples_skipped(), 0u) << "a 0.5 gate must skip some resamples";
  const auto gated_again = run(0.5);
  ASSERT_EQ(gated.size(), gated_again.size());
  for (std::size_t i = 0; i < gated.size(); ++i) {
    ASSERT_EQ(gated.weights()[i], gated_again.weights()[i]) << i;
    ASSERT_EQ(gated.positions()[i], gated_again.positions()[i]) << i;
  }
}

/// A small deployment whose readings never degenerate: 4x4 grid, one
/// fusion disk covering most of the area.
struct SmallWorld {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;
  SmallWorld() {
    sensors = place_grid(env.bounds(), 4, 4);
    set_background(sensors, 5.0);
  }
};

FilterConfig fused_test_config(double ess_threshold) {
  FilterConfig cfg;
  cfg.num_particles = 400;
  cfg.fusion_range = 60.0;
  cfg.ess_resample_threshold = ess_threshold;
  return cfg;
}

/// ESS threshold low enough that the gate skips every non-degenerate
/// resample, so positions never move between the readings of a group.
constexpr double kAlwaysSkip = 1e-6;

TEST(FusedUpdates, SizeOneGroupBitIdenticalToProcess) {
  const SmallWorld w;
  const Measurement m{5, 30.0};
  FusionParticleFilter a(w.env, w.sensors, fused_test_config(1.0), Rng(3));
  FusionParticleFilter b(w.env, w.sensors, fused_test_config(1.0), Rng(3));
  const std::size_t na = a.process(m);
  const std::size_t nb = b.process_fused(std::span{&m, 1});
  EXPECT_EQ(na, nb);
  EXPECT_EQ(b.fused_groups(), 0u) << "size-1 groups take the exact single-reading path";
  EXPECT_EQ(b.iteration(), a.iteration());
  EXPECT_EQ(state_fingerprint(b), state_fingerprint(a));
}

TEST(FusedUpdates, GroupMatchesSerialWithinToleranceAtEveryTier) {
  // With the gate skipping every resample the serial path never mutates
  // positions mid-group, so fused-vs-serial differ only by FP reordering of
  // the summed log-likelihoods: positions bitwise equal, weights within a
  // tight relative tolerance — at every SIMD tier the host supports.
  const SmallWorld w;
  const std::vector<Measurement> stream{{5, 28.0}, {5, 31.0}, {5, 30.0}, {5, 33.0},
                                        {9, 12.0}, {9, 14.0}, {9, 11.0}, {9, 13.0}};
  for (const simd::Tier tier : simd::sweep_tiers()) {
    simd::force_tier(tier);
    FusionParticleFilter serial(w.env, w.sensors, fused_test_config(kAlwaysSkip), Rng(3));
    FusionParticleFilter fused(w.env, w.sensors, fused_test_config(kAlwaysSkip), Rng(3));
    for (const Measurement& m : stream) (void)serial.process(m);
    (void)fused.process_fused(std::span{stream}.subspan(0, 4));
    (void)fused.process_fused(std::span{stream}.subspan(4, 4));
    simd::reset_tier();

    EXPECT_EQ(fused.iteration(), serial.iteration()) << "fused must count every reading";
    EXPECT_EQ(fused.fused_groups(), 2u);
    EXPECT_EQ(fused.fused_readings(), 8u);
    ASSERT_EQ(fused.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(fused.positions()[i], serial.positions()[i])
          << "tier " << static_cast<int>(tier) << " i=" << i;
      const double ws = serial.weights()[i];
      const double wf = fused.weights()[i];
      ASSERT_LE(std::abs(wf - ws), 1e-9 * std::abs(ws) + 1e-15)
          << "tier " << static_cast<int>(tier) << " i=" << i;
    }
  }
}

TEST(FusedUpdates, RejectsMixedSensorsNonStaticMovementAndMalformedReadings) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, fused_test_config(1.0), Rng(3));

  EXPECT_EQ(filter.process_fused({}), 0u);
  EXPECT_EQ(filter.iteration(), 0u) << "an empty group must not advance the clock";

  const std::vector<Measurement> mixed{{5, 30.0}, {6, 30.0}};
  EXPECT_THROW((void)filter.process_fused(mixed), std::invalid_argument);
  const std::vector<Measurement> malformed{{5, 30.0}, {5, -1.0}};
  EXPECT_THROW((void)filter.process_fused(malformed), std::invalid_argument);
  EXPECT_EQ(filter.iteration(), 0u) << "rejected groups must not advance the clock";

  filter.set_movement_model(std::make_unique<RandomWalkMovement>(0.5));
  const std::vector<Measurement> group{{5, 30.0}, {5, 31.0}};
  EXPECT_THROW((void)filter.process_fused(group), std::invalid_argument)
      << "fused updates require a static movement model";
}

}  // namespace
}  // namespace radloc
