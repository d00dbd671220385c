// Scalar kernel tier — the bit-identical reference.
//
// Every function here replays the exact expression, evaluation order and
// edge semantics of the seed's per-element code (PoissonLogPmf,
// expected_cpm_single_free_space, the filter's max/exp renormalization,
// MeanShiftEstimator::ascend's step), so routing the hot paths through this
// tier changes no bit of any result. It is the portable tier and the
// reference tests/test_simd.cpp validates the vector tiers against.
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

void poisson_log_pmf_multi(const double* k, const double* log_k_factorial, const double* lambda,
                           double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = k[i] < 0.0 ? kNegInf : poisson_one(k[i], log_k_factorial[i], lambda[i]);
  }
}

// Sum of `reps` single-k terms sharing one rate; reps == 1 replays
// PoissonLogPmf bit for bit (1.0 * lambda is exact).
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
                      const double* y, const double* strength, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = ax - x[i];
    const double dy = ay - y[i];
    const double fs = strength[i] / (1.0 + (dx * dx + dy * dy));
    out[i] = scale * fs + background;
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

// MeanShiftEstimator::ascend's per-slot step: a zero slot would add only
// signed zeros to sums that start at +0, so skipping it changes no bit.
void meanshift_moments(bool gaussian, double cx, double cy, double s, double h2, double hs2,
                       double r2, const double* x, const double* y, const double* log_strength,
                       const double* w, std::size_t n, double* sums) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - cx;
    const double dy = y[i] - cy;
    const double d2 = dx * dx + dy * dy;
    if (!(d2 <= r2 && w[i] > 0.0)) continue;
    const double dls = log_strength[i] - s;
    const double e = 0.5 * (d2 / h2 + dls * dls / hs2);
    const double k = w[i] * (gaussian ? std::exp(-e) : std::max(0.0, 1.0 - e / 4.5));
    sums[0] += k * x[i];
    sums[1] += k * y[i];
    sums[2] += k * log_strength[i];
    sums[3] += k;
  }
}

}  // namespace

const Kernels* scalar_kernels() {
  static const Kernels kTable{
      Tier::kScalar,     "scalar",   &poisson_log_pmf_multi, &poisson_log_pmf_fused,
      &hypothesis_rates, &max_value, &exp_shifted,           &meanshift_moments,
  };
  return &kTable;
}

}  // namespace radloc::simd
