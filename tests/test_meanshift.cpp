#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {
namespace {

struct Cloud {
  std::vector<Point2> positions;
  std::vector<double> strengths;
  std::vector<double> weights;
};

/// Particles clustered around `centers` with Gaussian spread, log-normal
/// strength scatter around each center's strength, equal weights.
Cloud make_cloud(Rng& rng, const std::vector<SourceEstimate>& centers, std::size_t per_center,
                 double pos_sigma = 3.0, double strength_sigma = 0.15) {
  Cloud c;
  const double w = 1.0 / static_cast<double>(centers.size() * per_center);
  for (const auto& center : centers) {
    for (std::size_t i = 0; i < per_center; ++i) {
      c.positions.push_back({center.pos.x + normal(rng, 0.0, pos_sigma),
                             center.pos.y + normal(rng, 0.0, pos_sigma)});
      c.strengths.push_back(center.strength * std::exp(normal(rng, 0.0, strength_sigma)));
      c.weights.push_back(w);
    }
  }
  return c;
}

MeanShiftConfig test_config() {
  MeanShiftConfig cfg;
  cfg.min_support = 0.05;
  return cfg;
}

TEST(MeanShift, EmptyInputGivesNoEstimates) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  EXPECT_TRUE(est.estimate({}, {}, {}).empty());
}

TEST(MeanShift, AllZeroWeightsGiveNoEstimates) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const std::vector<Point2> pos{{10, 10}, {20, 20}};
  const std::vector<double> str{5.0, 5.0};
  const std::vector<double> w{0.0, 0.0};
  EXPECT_TRUE(est.estimate(pos, str, w).empty());
}

TEST(MeanShift, MismatchedSpansThrow) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const std::vector<Point2> pos{{10, 10}};
  const std::vector<double> one{5.0};
  const std::vector<double> two{0.5, 0.5};
  EXPECT_THROW((void)est.estimate(pos, one, two), std::invalid_argument);
}

TEST(MeanShift, ConfigValidation) {
  ThreadPool pool(1);
  MeanShiftConfig cfg = test_config();
  cfg.bandwidth_xy = 0.0;
  EXPECT_THROW(MeanShiftEstimator(make_area(10, 10), cfg, pool), std::invalid_argument);
  cfg = test_config();
  cfg.min_support = 1.5;
  EXPECT_THROW(MeanShiftEstimator(make_area(10, 10), cfg, pool), std::invalid_argument);
}

TEST(MeanShift, SingleClusterRecovered) {
  Rng rng(1);
  ThreadPool pool(1);
  const auto cloud = make_cloud(rng, {{{47, 71}, 10.0, 0.0}}, 800);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {47, 71}), 2.0);
  EXPECT_NEAR(modes[0].strength, 10.0, 1.5);
  EXPECT_GT(modes[0].support, 0.9);
}

/// Sweep over cluster counts: the estimator must learn K itself.
class ClusterCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterCountSweep, LearnsK) {
  const int k = GetParam();
  Rng rng(100 + k);
  const std::vector<Point2> grid{{20, 20}, {80, 20}, {20, 80}, {80, 80}, {50, 50}};
  std::vector<SourceEstimate> centers;
  for (int j = 0; j < k; ++j) centers.push_back({grid[j], 20.0 + 10.0 * j, 0.0});

  const auto cloud = make_cloud(rng, centers, 500);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);

  ASSERT_EQ(modes.size(), static_cast<std::size_t>(k));
  // Every center matched by some mode.
  for (const auto& c : centers) {
    const bool found = std::any_of(modes.begin(), modes.end(), [&](const SourceEstimate& m) {
      return distance(m.pos, c.pos) < 3.0;
    });
    EXPECT_TRUE(found) << "missing center " << c.pos.x << "," << c.pos.y;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ClusterCountSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(MeanShift, WeightsDominateOverCounts) {
  // Cluster A: many particles with tiny weights. Cluster B: few with heavy
  // weights. Support must follow weight, not count.
  Rng rng(2);
  Cloud cloud;
  for (int i = 0; i < 900; ++i) {
    cloud.positions.push_back({20 + normal(rng, 0, 2.0), 20 + normal(rng, 0, 2.0)});
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(0.1 / 900.0);
  }
  for (int i = 0; i < 100; ++i) {
    cloud.positions.push_back({80 + normal(rng, 0, 2.0), 80 + normal(rng, 0, 2.0)});
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(0.9 / 100.0);
  }
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 2u);
  // Sorted by support: the heavy cluster first.
  EXPECT_LT(distance(modes[0].pos, {80, 80}), 3.0);
  EXPECT_GT(modes[0].support, modes[1].support);
}

TEST(MeanShift, MinSupportFiltersNoiseClusters) {
  Rng rng(3);
  // One real cluster + uniform background noise.
  auto cloud = make_cloud(rng, {{{50, 50}, 20.0, 0.0}}, 700);
  const AreaBounds area = make_area(100, 100);
  for (int i = 0; i < 300; ++i) {
    cloud.positions.push_back(uniform_point(rng, area));
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(1e-6);  // negligible weight
  }
  ThreadPool pool(1);
  MeanShiftConfig cfg = test_config();
  cfg.min_support = 0.10;
  MeanShiftEstimator est(area, cfg, pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {50, 50}), 2.5);
}

TEST(MeanShift, CloseClustersMergeIntoOne) {
  Rng rng(4);
  // Two centers 4 apart with bandwidth 5: a single blended mode.
  const auto cloud =
      make_cloud(rng, {{{48, 50}, 10.0, 0.0}, {{52, 50}, 10.0, 0.0}}, 500);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {50, 50}), 2.5);
}

TEST(MeanShift, ParallelMatchesSerial) {
  Rng rng(5);
  const auto cloud = make_cloud(
      rng, {{{20, 30}, 15.0, 0.0}, {{70, 60}, 40.0, 0.0}, {{40, 85}, 90.0, 0.0}}, 400);

  ThreadPool serial(1);
  ThreadPool parallel(4);
  MeanShiftEstimator est_s(make_area(100, 100), test_config(), serial);
  MeanShiftEstimator est_p(make_area(100, 100), test_config(), parallel);
  const auto m_s = est_s.estimate(cloud.positions, cloud.strengths, cloud.weights);
  const auto m_p = est_p.estimate(cloud.positions, cloud.strengths, cloud.weights);

  ASSERT_EQ(m_s.size(), m_p.size());
  for (std::size_t i = 0; i < m_s.size(); ++i) {
    EXPECT_NEAR(m_s[i].pos.x, m_p[i].pos.x, 1e-9);
    EXPECT_NEAR(m_s[i].pos.y, m_p[i].pos.y, 1e-9);
    EXPECT_NEAR(m_s[i].strength, m_p[i].strength, 1e-9);
    EXPECT_NEAR(m_s[i].support, m_p[i].support, 1e-9);
  }
}

TEST(MeanShift, StrengthRecoveredInLogSpace) {
  // Widely different strengths must both be recovered — the log-strength
  // feature space keeps the kernel scale-free.
  Rng rng(6);
  const auto cloud = make_cloud(rng, {{{25, 25}, 4.0, 0.0}, {{75, 75}, 900.0, 0.0}}, 600);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 2u);
  std::vector<double> strengths{modes[0].strength, modes[1].strength};
  std::sort(strengths.begin(), strengths.end());
  EXPECT_NEAR(strengths[0], 4.0, 1.0);
  EXPECT_NEAR(strengths[1], 900.0, 180.0);
}

TEST(MeanShift, SupportSumsToAtMostOne) {
  Rng rng(7);
  const auto cloud = make_cloud(rng, {{{30, 30}, 10.0, 0.0}, {{70, 70}, 10.0, 0.0}}, 400);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  double total = 0.0;
  for (const auto& m : modes) total += m.support;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.8);  // most mass is in the two basins
}

/// A fixed posterior-shaped cloud over `sc`'s area: 70% of the particles
/// in triangular clusters (+-6 units) around the scenario's sources with
/// strengths scattered +-0.3 in log space, 30% spread uniformly with
/// strengths log-uniform over 1-1000 uCi; positions clamped into the area,
/// so cluster edges land on its border. Weights are uniform in [0, 1) with
/// every 11th zero. Only uniform draws, so the cloud depends on Rng alone.
Cloud make_fixed_cloud(const Scenario& sc, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const AreaBounds& b = sc.env.bounds();
  Cloud c;
  for (std::size_t i = 0; i < n; ++i) {
    if (uniform01(rng) < 0.3) {
      c.positions.push_back({uniform(rng, b.min.x, b.max.x), uniform(rng, b.min.y, b.max.y)});
      c.strengths.push_back(std::exp(uniform(rng, 0.0, std::log(1000.0))));
    } else {
      const Source& src = sc.sources[uniform_index(rng, sc.sources.size())];
      const double dx = uniform(rng, -3.0, 3.0) + uniform(rng, -3.0, 3.0);
      const double dy = uniform(rng, -3.0, 3.0) + uniform(rng, -3.0, 3.0);
      c.positions.push_back(b.clamp({src.pos.x + dx, src.pos.y + dy}));
      c.strengths.push_back(src.strength * std::exp(uniform(rng, -0.3, 0.3)));
    }
    c.weights.push_back(i % 11 == 0 ? 0.0 : uniform01(rng));
  }
  return c;
}

/// FNV-1a over the bits of every estimate field, count first.
std::uint64_t hash_estimates(const std::vector<SourceEstimate>& estimates) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  const std::uint64_t count = estimates.size();
  mix(&count, sizeof(count));
  for (const auto& e : estimates) {
    for (const double v : {e.pos.x, e.pos.y, e.strength, e.support}) mix(&v, sizeof(v));
  }
  return h;
}

/// Pins a SIMD tier (the scalar one unless told otherwise) for a test's
/// lifetime.
struct PinnedTier {
  explicit PinnedTier(simd::Tier t = simd::Tier::kScalar) { simd::force_tier(t); }
  ~PinnedTier() { simd::reset_tier(); }
  PinnedTier(const PinnedTier&) = delete;
  PinnedTier& operator=(const PinnedTier&) = delete;
};

/// Clusters centred on and beyond the area's edges, jittered without
/// clamping, plus scatter over a box 8 units wider than the area on every
/// side: particles outside the bounds are filed in the clamped border cells,
/// and modes form within a cell of the border and (the cluster 13 units out)
/// beyond it.
Cloud make_border_cloud(const AreaBounds& b, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Point2> centers{{b.min.x + 1.0, 50.0},  {b.max.x - 0.8, b.max.y - 0.5},
                                    {50.0, b.min.y + 0.4},  {b.min.x - 2.5, 20.0},
                                    {b.max.x + 2.0, 70.0},  {b.min.x - 13.0, 80.0}};
  Cloud c;
  for (std::size_t i = 0; i < n; ++i) {
    if (uniform01(rng) < 0.2) {
      c.positions.push_back(
          {uniform(rng, b.min.x - 8.0, b.max.x + 8.0), uniform(rng, b.min.y - 8.0, b.max.y + 8.0)});
      c.strengths.push_back(std::exp(uniform(rng, 0.0, std::log(1000.0))));
    } else {
      const Point2 center = centers[uniform_index(rng, centers.size())];
      c.positions.push_back({center.x + uniform(rng, -3.0, 3.0) + uniform(rng, -3.0, 3.0),
                             center.y + uniform(rng, -3.0, 3.0) + uniform(rng, -3.0, 3.0)});
      c.strengths.push_back(20.0 * std::exp(uniform(rng, -0.3, 0.3)));
    }
    c.weights.push_back(i % 11 == 0 ? 0.0 : uniform01(rng));
  }
  return c;
}

/// Indices of make_tie_cloud's tie particles: the last kTieParticles.
constexpr std::size_t kTieParticles = 9;

/// Two stacks of 128 identical particles (strength 1) at (22, 50) with
/// weight 0.5 and at (40, 50) with weight 0.25 climb to exactly those points
/// (densities 64 and 32, so the first is the lower kept index), 18 apart:
/// beyond each other's 3h kernel and the default merge radius. Scatter at
/// x >= 58 stays outside both kernels. The last nine particles, at
/// (31, 50 + dy) for dy in -4..4, are exactly equidistant from both modes
/// (d2 = 81 + dy^2 < (2h)^2), in a grid cell of their own; strength e^-25
/// puts them in neither stack's kernel, and they weigh too little to be
/// drawn as seeds. Each goes to the lower-index mode.
Cloud make_tie_cloud(std::uint64_t seed) {
  Rng rng(seed);
  Cloud c;
  const auto add = [&c](Point2 p, double strength, double weight) {
    c.positions.push_back(p);
    c.strengths.push_back(strength);
    c.weights.push_back(weight);
  };
  for (int i = 0; i < 128; ++i) add({22.0, 50.0}, 1.0, 0.5);
  for (int i = 0; i < 128; ++i) add({40.0, 50.0}, 1.0, 0.25);
  for (int i = 0; i < 600; ++i) {
    add({uniform(rng, 58.0, 100.0), uniform(rng, 0.0, 100.0)},
        std::exp(uniform(rng, 0.0, std::log(1000.0))), uniform01(rng));
  }
  for (int dy = -4; dy <= 4; ++dy) add({31.0, 50.0 + dy}, std::exp(-25.0), 0.01);
  return c;
}

struct GoldenCase {
  const char* name;
  AreaBounds bounds;
  Cloud cloud;
  MeanShiftConfig cfg;
  std::uint64_t golden;
};

std::vector<GoldenCase> golden_cases() {
  const Scenario a = make_scenario_a(10.0);
  const Scenario a3u = make_scenario_a3(10.0, 5.0, /*with_obstacle=*/true);
  const Scenario c = make_scenario_c();
  const auto config = [](KernelType kernel, double bandwidth_xy, double merge_radius) {
    MeanShiftConfig cfg;
    cfg.kernel = kernel;
    cfg.bandwidth_xy = bandwidth_xy;
    cfg.merge_radius = merge_radius;
    return cfg;
  };
  const MeanShiftConfig gauss = config(KernelType::kGaussian, 5.0, 6.0);
  const AreaBounds& ab = a.env.bounds();
  return {
      {"A/1", ab, make_fixed_cloud(a, 2000, 1), gauss, 0x56ebcfa67aaf3c2fULL},
      {"A/2", ab, make_fixed_cloud(a, 2000, 2), gauss, 0x5fa76de85a8234f8ULL},
      {"A3+U/1", a3u.env.bounds(), make_fixed_cloud(a3u, 2000, 1), gauss, 0x72b84cc08bd67248ULL},
      {"A3+U/2", a3u.env.bounds(), make_fixed_cloud(a3u, 2000, 2), gauss, 0x936662a17b66d32bULL},
      {"C/1", c.env.bounds(), make_fixed_cloud(c, 15000, 1), gauss, 0xf00c49b227a07cb5ULL},
      {"C/2", c.env.bounds(), make_fixed_cloud(c, 15000, 2), gauss, 0xd1302d6bb099cfd0ULL},
      {"A/1 epanechnikov", ab, make_fixed_cloud(a, 2000, 1),
       config(KernelType::kEpanechnikov, 5.0, 6.0), 0x9b338fb65737d16fULL},
      // Support-pass geometry: border cells, exact ties, an assignment
      // radius set by the merge radius, and a grid pitch of 1 > h.
      {"border/1", ab, make_border_cloud(ab, 3000, 1), gauss, 0xa727dabc879e4716ULL},
      {"border/2", ab, make_border_cloud(ab, 3000, 2), gauss, 0x716cb27bbd5a9cfeULL},
      {"ties", ab, make_tie_cloud(3), gauss, 0x8ee7d5ca520ae227ULL},
      {"A/1 merge 14", ab, make_fixed_cloud(a, 2000, 1), config(KernelType::kGaussian, 5.0, 14.0),
       0xb5308263d1c314e8ULL},
      {"C/1 merge 22", c.env.bounds(), make_fixed_cloud(c, 15000, 1),
       config(KernelType::kGaussian, 5.0, 22.0), 0x3e3e8188b25dec2eULL},
      {"A/1 h 0.6", ab, make_fixed_cloud(a, 2000, 1), config(KernelType::kGaussian, 0.6, 1.0),
       0xa1940d0a730c6254ULL},
      {"border/1 h 0.8", ab, make_border_cloud(ab, 3000, 1),
       config(KernelType::kGaussian, 0.8, 6.0), 0x858bfb4e82169d8dULL},
  };
}

/// Runs every golden case at the pinned tier on one and on four threads:
/// the one-thread hash must be `want(case index)` and the four-thread
/// answer must hash the same.
template <typename Want>
void expect_golden_hashes(Want want) {
  ThreadPool serial(1);
  ThreadPool parallel(4, /*max_fanout=*/4);
  const auto cases = golden_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const GoldenCase& gc = cases[c];
    MeanShiftEstimator est_s(gc.bounds, gc.cfg, serial);
    MeanShiftEstimator est_p(gc.bounds, gc.cfg, parallel);
    const Cloud& cloud = gc.cloud;
    const auto modes = est_s.estimate(cloud.positions, cloud.strengths, cloud.weights);
    EXPECT_GE(modes.size(), 1u) << gc.name;
    const std::uint64_t h = hash_estimates(modes);
    EXPECT_EQ(h, want(c, gc)) << gc.name << " at " << simd::tier_name(simd::active_tier())
                              << ": 0x" << std::hex << h;
    EXPECT_EQ(hash_estimates(est_p.estimate(cloud.positions, cloud.strengths, cloud.weights)), h)
        << gc.name;
  }
}

TEST(MeanShiftGolden, ScalarTierOutputMatchesGolden) {
  // Mean-shift output on fixed clouds, bit for bit, at the scalar tier, at
  // one and at four threads. The first seven hashes were captured from the
  // estimator that gathered each ascent's neighbours one at a time through a
  // grid radius query, before the climb moved onto a cell-ordered copy; the
  // support-pass cases from the estimator that scanned every kept mode for
  // every particle, before the scan moved onto per-cell candidate lists.
  const PinnedTier scalar;
  expect_golden_hashes([](std::size_t, const GoldenCase& gc) { return gc.golden; });
}

/// golden_cases()' hashes at the vector tiers, case for case, captured
/// when the detected tier became the default. The vector tiers' exp differs
/// from libm's by about an ulp and their step sums run in lanes, so each
/// tier has its own hashes.
struct VectorGolden {
  const char* name;
  std::uint64_t sse2;
  std::uint64_t avx2;
};

const std::vector<VectorGolden>& vector_goldens() {
  static const std::vector<VectorGolden> goldens{
      {"A/1", 0xccb22d1cb476c10aULL, 0xea01ba782aaedbaeULL},
      {"A/2", 0x1ec809afcdb78461ULL, 0x3b0bacdc77db5313ULL},
      {"A3+U/1", 0x4dc8e1efd3b4a7b8ULL, 0xb32c2c863d61dd26ULL},
      {"A3+U/2", 0x64746eaeec8657e8ULL, 0x79660be8b81e5e08ULL},
      {"C/1", 0x1f026b8a8f6dbed0ULL, 0x88cf30df5f5a8f13ULL},
      {"C/2", 0x69ef0b261007d408ULL, 0xb840103c61b1324eULL},
      {"A/1 epanechnikov", 0x0ba56e2f5f23e755ULL, 0xbbf743e3a8d7a3f7ULL},
      {"border/1", 0x6bb6e69538d42909ULL, 0x4a35ed1b4ba3c44bULL},
      {"border/2", 0x3cca92cb3b6780d2ULL, 0x84e1131a5aa855a0ULL},
      {"ties", 0xb7624f5c960b987cULL, 0x50781214af53b063ULL},
      {"A/1 merge 14", 0x50a2e6a07dc6f405ULL, 0x1440126d275f6057ULL},
      {"C/1 merge 22", 0xc180fa3a526712ffULL, 0xab3394cb221f3fc4ULL},
      {"A/1 h 0.6", 0x932cb5d9d4624422ULL, 0x44a5eac1c034cb88ULL},
      {"border/1 h 0.8", 0x738d9e0364d955abULL, 0xf817495692da716dULL},
  };
  return goldens;
}

TEST(MeanShiftGolden, DetectedTierOutputMatchesGolden) {
  // The default path's determinism pin: the golden clouds at the detected
  // tier (what an unset RADLOC_SIMD runs), at one and at four threads.
  const simd::Tier tier = simd::detected_tier();
  if (tier == simd::Tier::kScalar) GTEST_SKIP() << "the host has no vector tier";
  const PinnedTier pinned(tier);
  const auto& goldens = vector_goldens();
  ASSERT_EQ(goldens.size(), golden_cases().size());
  expect_golden_hashes([&](std::size_t c, const GoldenCase& gc) {
    EXPECT_STREQ(goldens[c].name, gc.name);
    return tier == simd::Tier::kAvx2 ? goldens[c].avx2 : goldens[c].sse2;
  });
}

TEST(MeanShiftGolden, TieCloudClimbsToTheStacksAndSeedsNoTieParticle) {
  // The tie case above holds only if the construction does: both stacks
  // are reported at their exact positions, no seed is a tie particle, and
  // the tie particles' weight lands on the denser stack.
  const PinnedTier scalar;
  ThreadPool serial(1);
  const Cloud cloud = make_tie_cloud(3);
  MeanShiftEstimator est(make_area(100.0, 100.0), MeanShiftConfig{}, serial);
  for (const auto s : est.select_seeds(cloud.positions, cloud.weights)) {
    EXPECT_LT(s, cloud.positions.size() - kTieParticles);
  }
  double total = 0.0;
  for (const double w : cloud.weights) total += w;
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  const auto at = [&](Point2 p) {
    return std::find_if(modes.begin(), modes.end(),
                        [&](const SourceEstimate& e) { return e.pos.x == p.x && e.pos.y == p.y; });
  };
  const auto dense = at({22.0, 50.0});
  const auto light = at({40.0, 50.0});
  ASSERT_NE(dense, modes.end());
  ASSERT_NE(light, modes.end());
  // The stack's 0.5s, then the tie particles' 0.01s, summed in index order.
  double dense_mass = 64.0;
  for (std::size_t i = 0; i < kTieParticles; ++i) dense_mass += 0.01;
  EXPECT_EQ(dense->support, dense_mass / total);
  EXPECT_EQ(light->support, 32.0 / total);
}

/// One estimator and the cloud it runs on, with its solo answer.
struct ShapedEstimate {
  Scenario sc;
  Cloud cloud;
  ThreadPool pool{1};
  MeanShiftEstimator est;

  ShapedEstimate(Scenario scenario, std::size_t particles, std::uint64_t seed)
      : sc(std::move(scenario)),
        cloud(make_fixed_cloud(sc, particles, seed)),
        est(sc.env.bounds(), MeanShiftConfig{}, pool) {}

  std::uint64_t run() { return hash_estimates(est.estimate(cloud.positions, cloud.strengths, cloud.weights)); }
};

TEST(MeanShiftScratch, InterleavedEstimatorsOfDifferentShapesMatchSoloRuns) {
  // Estimators over different areas (400 vs 2704 grid cells) and particle
  // counts share one thread's scratch.
  ShapedEstimate a(make_scenario_a(10.0), 2000, 3);
  ShapedEstimate c(make_scenario_c(), 15000, 4);
  ShapedEstimate a_solo(make_scenario_a(10.0), 2000, 3);
  ShapedEstimate c_solo(make_scenario_c(), 15000, 4);
  const std::uint64_t ha = a_solo.run();
  const std::uint64_t hc = c_solo.run();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(c.run(), hc) << round;
    EXPECT_EQ(a.run(), ha) << round;
  }
}

TEST(MeanShiftScratch, EstimatorsOnTwoThreadsMatchSoloRuns) {
  ShapedEstimate a(make_scenario_a(10.0), 2000, 3);
  ShapedEstimate c(make_scenario_c(), 15000, 4);
  const std::uint64_t ha = a.run();
  const std::uint64_t hc = c.run();
  std::vector<std::uint64_t> got_a;
  std::vector<std::uint64_t> got_c;
  {
    std::thread ta([&] {
      for (int round = 0; round < 4; ++round) got_a.push_back(a.run());
    });
    std::thread tc([&] {
      for (int round = 0; round < 2; ++round) got_c.push_back(c.run());
    });
    ta.join();
    tc.join();
  }
  for (const std::uint64_t h : got_a) EXPECT_EQ(h, ha);
  for (const std::uint64_t h : got_c) EXPECT_EQ(h, hc);
}

}  // namespace
}  // namespace radloc
