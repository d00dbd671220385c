#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "radloc/common/math.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/rng/poisson_process.hpp"
#include "radloc/rng/rng.hpp"

namespace radloc {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child stream must not simply mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, StreamsAreReproducibleAndDistinct) {
  // stream(key, index) is a pure function of its arguments; neighbouring
  // indices and keys give unrelated streams.
  const std::uint64_t key = 0x1234abcdULL;
  Rng a = Rng::stream(key, 7);
  Rng b = Rng::stream(key, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  for (const auto& [k, idx] : {std::pair{key, 8ULL}, std::pair{key + 1, 7ULL}}) {
    Rng x = Rng::stream(key, 7);
    Rng y = Rng::stream(k, idx);
    int same = 0;
    for (int i = 0; i < 100; ++i) same += x() == y() ? 1 : 0;
    EXPECT_EQ(same, 0) << "key " << k << " index " << idx;
  }
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanAndVarianceMatch) {
  Rng rng(43);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(uniform01(rng));
  EXPECT_NEAR(rs.mean(), 0.5, 0.005);
  EXPECT_NEAR(rs.variance(), 1.0 / 12.0, 0.003);
}

TEST(UniformIndex, CoversRangeWithoutBias) {
  Rng rng(44);
  constexpr std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  constexpr int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[uniform_index(rng, n)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / static_cast<double>(n), 400.0);
  }
}

TEST(UniformIndex, SingleOutcome) {
  Rng rng(45);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(uniform_index(rng, 1), 0u);
}

TEST(UniformPoint, StaysInsideArea) {
  Rng rng(46);
  const AreaBounds area{{10.0, -5.0}, {20.0, 5.0}};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(area.contains(uniform_point(rng, area)));
  }
}

TEST(Normal, MomentsMatch) {
  Rng rng(47);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(normal(rng, 3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.02);
}

// Phi, the standard normal CDF.
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(Normal, KolmogorovSmirnovAgainstPhi) {
  // One-sample KS statistic over 10^6 draws, against the asymptotic 0.1%
  // critical value 1.9495 / sqrt(n).
  Rng rng(52);
  constexpr std::size_t n = 1000000;
  std::vector<double> z(n);
  for (auto& v : z) v = normal(rng);
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = normal_cdf(z[i]);
    d = std::max({d, f - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - f});
  }
  EXPECT_LT(d, 1.9495 / std::sqrt(static_cast<double>(n)));
}

TEST(Normal, TailShareMatchesBeyondZigguratBase) {
  // |z| > 3.4426 is the ziggurat's tail, drawn by a separate sampler: its
  // share of 10^6 draws must lie within 4 binomial sigma of 2 (1 - Phi(R)).
  Rng rng(53);
  constexpr int n = 1000000;
  constexpr double r = 3.4426;
  int tail = 0;
  for (int i = 0; i < n; ++i) tail += std::abs(normal(rng)) > r ? 1 : 0;
  const double p = 2.0 * (1.0 - normal_cdf(r));
  EXPECT_NEAR(static_cast<double>(tail), n * p, 4.0 * std::sqrt(n * p * (1.0 - p)));
}

TEST(Exponential, MeanMatches) {
  Rng rng(48);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(exponential(rng, 0.5));
  EXPECT_NEAR(rs.mean(), 2.0, 0.05);
}

/// Poisson sampler property sweep across both algorithm regimes (Knuth
/// below lambda=30, PTRS above).
class PoissonSamplerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSamplerSweep, MeanAndVarianceEqualLambda) {
  const double lambda = GetParam();
  Rng rng(49);
  RunningStats rs;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) rs.add(static_cast<double>(poisson(rng, lambda)));
  const double tol = 5.0 * std::sqrt(lambda / draws) + 0.01;
  EXPECT_NEAR(rs.mean(), lambda, tol) << "lambda=" << lambda;
  // Variance of the sample variance is ~2 lambda^2 / n for Poisson-ish tails.
  EXPECT_NEAR(rs.variance(), lambda, 10.0 * lambda / std::sqrt(draws) + 0.05)
      << "lambda=" << lambda;
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonSamplerSweep,
                         ::testing::Values(0.1, 1.0, 5.0, 29.9, 30.1, 100.0, 5000.0));

TEST(PoissonSampler, ZeroLambdaGivesZero) {
  Rng rng(50);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(poisson(rng, 0.0), 0u);
  EXPECT_EQ(poisson(rng, -3.0), 0u);
}

TEST(PoissonSampler, DistributionMatchesPmfChiSquared) {
  // Goodness-of-fit against the analytic PMF at lambda = 8.
  const double lambda = 8.0;
  Rng rng(51);
  constexpr int draws = 100000;
  constexpr int k_max = 30;
  std::vector<int> observed(k_max + 1, 0);
  for (int i = 0; i < draws; ++i) {
    const auto k = poisson(rng, lambda);
    ++observed[std::min<std::uint64_t>(k, k_max)];
  }
  double chi2 = 0.0;
  int dof = 0;
  for (int k = 0; k < k_max; ++k) {
    const double expected = draws * poisson_pmf(k, lambda);
    if (expected < 5.0) continue;
    chi2 += square(observed[k] - expected) / expected;
    ++dof;
  }
  // 99.9th percentile of chi2 with ~20 dof is ~45; allow slack.
  EXPECT_LT(chi2, 60.0) << "dof=" << dof;
}

TEST(PoissonProcess, BinomialCountExact) {
  Rng rng(52);
  const auto pts = sample_binomial_process(rng, make_area(100, 100), 195);
  EXPECT_EQ(pts.size(), 195u);
  const AreaBounds area = make_area(100, 100);
  for (const auto& p : pts) EXPECT_TRUE(area.contains(p));
}

TEST(PoissonProcess, HomogeneousCountIsPoisson) {
  Rng rng(53);
  const AreaBounds area = make_area(10, 10);
  const double intensity = 0.5;  // expect 50 points
  RunningStats rs;
  for (int i = 0; i < 2000; ++i) {
    rs.add(static_cast<double>(sample_poisson_process(rng, area, intensity).size()));
  }
  EXPECT_NEAR(rs.mean(), 50.0, 1.0);
  EXPECT_NEAR(rs.variance(), 50.0, 5.0);
}

TEST(PoissonProcess, RejectsNegativeIntensity) {
  Rng rng(54);
  EXPECT_THROW((void)sample_poisson_process(rng, make_area(1, 1), -1.0), std::invalid_argument);
}

TEST(SeparatedPoints, RespectsMinDistanceWhenFeasible) {
  Rng rng(55);
  const auto pts = sample_separated_points(rng, make_area(100, 100), 9, 20.0);
  ASSERT_EQ(pts.size(), 9u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(distance(pts[i], pts[j]), 20.0);
    }
  }
}

TEST(SeparatedPoints, FallsBackWhenInfeasible) {
  Rng rng(56);
  // 50 points with 100-unit separation cannot fit in a 100x100 box; the
  // sampler must still return 50 points.
  const auto pts = sample_separated_points(rng, make_area(100, 100), 50, 100.0, 10);
  EXPECT_EQ(pts.size(), 50u);
}

}  // namespace
}  // namespace radloc
