#include "radloc/rng/distributions.hpp"

#include <array>
#include <cmath>
#include <cstddef>

#include "radloc/common/math.hpp"

namespace radloc {

double uniform01(Rng& rng) {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Rng& rng, double lo, double hi) { return lo + (hi - lo) * uniform01(rng); }

std::uint64_t uniform_index(Rng& rng, std::uint64_t n) {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = rng();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Point2 uniform_point(Rng& rng, const AreaBounds& area) {
  return Point2{uniform(rng, area.min.x, area.max.x), uniform(rng, area.min.y, area.max.y)};
}

namespace {

// Ziggurat for the standard normal, 128 layers of equal area under the
// unnormalised density f(x) = exp(-x^2 / 2) on x >= 0 (Marsaglia & Tsang,
// "The Ziggurat Method for Generating Random Variables", 2000).
constexpr std::size_t kZigLayers = 128;
constexpr double kZigTail = 3.442619855899;        // R: where the tail starts
constexpr double kZigArea = 9.91256303526217e-3;  // V: area of every layer

struct ZigguratTables {
  // x[i] is the width of layer i: x[0] = V / f(R) (the base strip, whose
  // share beyond R stands for the tail), x[1] = R, decreasing to x[128] = 0.
  // f[i] = f(x[i]).
  std::array<double, kZigLayers + 1> x;
  std::array<double, kZigLayers + 1> f;
};

ZigguratTables make_ziggurat() {
  ZigguratTables t{};
  t.x[0] = kZigArea / std::exp(-0.5 * kZigTail * kZigTail);
  t.x[1] = kZigTail;
  for (std::size_t i = 1; i + 1 < kZigLayers; ++i) {
    // Layer i spans [f(x[i]), f(x[i+1])] at width x[i] and has area V.
    t.x[i + 1] =
        std::sqrt(-2.0 * std::log(kZigArea / t.x[i] + std::exp(-0.5 * t.x[i] * t.x[i])));
  }
  t.x[kZigLayers] = 0.0;
  for (std::size_t i = 0; i <= kZigLayers; ++i) t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
  return t;
}

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables = make_ziggurat();
  return tables;
}

// Marsaglia's exact sampler for the tail beyond R.
double normal_tail(Rng& rng, bool negative) {
  double x;
  double y;
  do {
    x = std::log(1.0 - uniform01(rng)) / kZigTail;  // -Exp(R)
    y = std::log(1.0 - uniform01(rng));              // -Exp(1)
  } while (-2.0 * y < x * x);
  return negative ? x - kZigTail : kZigTail - x;
}

// Everything past the core rectangles: the tail, the wedges, and redraws
// after a wedge rejection. Kept out of line so the common case stays a
// short leaf function.
[[gnu::noinline]] double standard_normal_rare(Rng& rng, std::size_t i, double u, double x) {
  const ZigguratTables& t = ziggurat();
  for (;;) {
    if (i == 0) return normal_tail(rng, u < 0.0);
    if (t.f[i + 1] + (t.f[i] - t.f[i + 1]) * uniform01(rng) < std::exp(-0.5 * x * x)) return x;
    const std::uint64_t bits = rng();
    i = bits & (kZigLayers - 1);
    u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    x = u * t.x[i];
    if (std::abs(x) < t.x[i + 1]) return x;
  }
}

double standard_normal(Rng& rng) {
  const ZigguratTables& t = ziggurat();
  // The low 7 bits pick the layer; the top 53 give a signed uniform in
  // [-1, 1), so the sign costs no extra draw.
  const std::uint64_t bits = rng();
  const std::size_t i = bits & (kZigLayers - 1);
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
  const double x = u * t.x[i];
  if (std::abs(x) < t.x[i + 1]) return x;  // inside the layer's core rectangle
  return standard_normal_rare(rng, i, u, x);
}

}  // namespace

double normal(Rng& rng, double mean, double stddev) {
  return mean + stddev * standard_normal(rng);
}

double exponential(Rng& rng, double lambda) {
  return -std::log(1.0 - uniform01(rng)) / lambda;
}

namespace {

std::uint64_t poisson_knuth(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform01(rng);
  } while (p > limit);
  return k - 1;
}

// PTRS: W. Hoermann, "The transformed rejection method for generating Poisson
// random variables" (1993). Valid for lambda >= 10; we use it from 30 up.
std::uint64_t poisson_ptrs(Rng& rng, double lambda) {
  const double log_lambda = std::log(lambda);
  const double b = 0.931 + 2.53 * std::sqrt(lambda);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);

  for (;;) {
    const double u = uniform01(rng) - 0.5;
    const double v = uniform01(rng);
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * log_lambda - lambda - log_factorial(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t poisson(Rng& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) return poisson_knuth(rng, lambda);
  return poisson_ptrs(rng, lambda);
}

}  // namespace radloc
