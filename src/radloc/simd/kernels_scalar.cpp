// Scalar kernel tier — the bit-identical reference.
//
// Every function here replays the exact expression, evaluation order and
// edge semantics of the seed's per-element code (PoissonLogPmf,
// expected_cpm_single_free_space, TransmissionCache::transmission, the
// filter's max/exp renormalization, MeanShiftEstimator::ascend), so routing
// the hot paths through this tier changes no bit of any result. The vector
// tiers are validated against these functions by tests/test_simd.cpp.
#include <algorithm>
#include <cmath>
#include <limits>

#include "radloc/simd/simd.hpp"

namespace radloc::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// PoissonLogPmf::operator() with k and log(k!) hoisted by the caller.
double poisson_one(double k, double log_k_factorial, double lambda) {
  if (lambda <= 0.0) {
    return k == 0.0 ? 0.0 : kNegInf;
  }
  return k * std::log(lambda) - lambda - log_k_factorial;
}

void poisson_log_pmf(double k, double log_k_factorial, const double* lambda, double* out,
                     std::size_t n) {
  if (k < 0.0) {
    std::fill(out, out + n, kNegInf);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = poisson_one(k, log_k_factorial, lambda[i]);
}

void poisson_log_pmf_multi(const double* k, const double* log_k_factorial, const double* lambda,
                           double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = k[i] < 0.0 ? kNegInf : poisson_one(k[i], log_k_factorial[i], lambda[i]);
  }
}

// Sum of `reps` single-k terms sharing one rate; reps == 1 replays
// poisson_one bit for bit (1.0 * lambda is exact).
void poisson_log_pmf_fused(double k_sum, double reps, double log_fact_sum, const double* lambda,
                           double* out, std::size_t n) {
  if (k_sum < 0.0) {
    std::fill(out, out + n, kNegInf);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (lambda[i] <= 0.0) {
      out[i] = k_sum == 0.0 ? 0.0 : kNegInf;
    } else {
      out[i] = k_sum * std::log(lambda[i]) - reps * lambda[i] - log_fact_sum;
    }
  }
}

void hypothesis_rates(double ax, double ay, double scale, double background, const double* x,
                      const double* y, const double* strength, const double* transmission,
                      double* out, std::size_t n) {
  if (transmission == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = ax - x[i];
      const double dy = ay - y[i];
      const double fs = strength[i] / (1.0 + (dx * dx + dy * dy));
      out[i] = scale * fs + background;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = ax - x[i];
      const double dy = ay - y[i];
      const double fs = strength[i] / (1.0 + (dx * dx + dy * dy));
      out[i] = scale * fs * transmission[i] + background;
    }
  }
}

void bilinear(const BilinearGrid& g, const double* x, const double* y, double* out,
              std::size_t n) {
  const auto nx_d = static_cast<double>(g.nx);
  const auto ny_d = static_cast<double>(g.ny);
  for (std::size_t p = 0; p < n; ++p) {
    const double u = std::clamp((x[p] - g.min_x) * g.inv_dx, 0.0, nx_d);
    const double v = std::clamp((y[p] - g.min_y) * g.inv_dy, 0.0, ny_d);
    const std::size_t i = std::min(static_cast<std::size_t>(u), g.nx - 1);
    const std::size_t j = std::min(static_cast<std::size_t>(v), g.ny - 1);
    const double fu = u - static_cast<double>(i);
    const double fv = v - static_cast<double>(j);

    const std::size_t row = j * (g.nx + 1) + i;
    const double t00 = g.nodes[row];
    const double t10 = g.nodes[row + 1];
    const double t01 = g.nodes[row + g.nx + 1];
    const double t11 = g.nodes[row + g.nx + 2];
    out[p] = (1.0 - fv) * ((1.0 - fu) * t00 + fu * t10) + fv * ((1.0 - fu) * t01 + fu * t11);
  }
}

double max_value(const double* v, std::size_t n) {
  double m = kNegInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] > m) m = v[i];
  }
  return m;
}

void exp_shifted(const double* v, double shift, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(v[i] - shift);
}

void meanshift_profile(bool gaussian, double cx, double cy, double s, double h2, double hs2,
                       double r2, const double* x, const double* y, const double* log_strength,
                       const double* w, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - cx;
    const double dy = y[i] - cy;
    const double d2 = dx * dx + dy * dy;
    if (!(d2 <= r2 && w[i] > 0.0)) {
      out[i] = 0.0;
      continue;
    }
    const double dls = log_strength[i] - s;
    const double e = 0.5 * (d2 / h2 + dls * dls / hs2);
    out[i] = w[i] * (gaussian ? std::exp(-e) : std::max(0.0, 1.0 - e / 4.5));
  }
}

}  // namespace

const Kernels* scalar_kernels() {
  static const Kernels kTable{
      Tier::kScalar,   "scalar",  &poisson_log_pmf, &poisson_log_pmf_multi,
      &poisson_log_pmf_fused,
      &hypothesis_rates, &bilinear, &max_value,       &exp_shifted,
      &meanshift_profile,
  };
  return &kTable;
}

}  // namespace radloc::simd
