// Batch kernels for the particle hot path, behind a runtime-dispatched
// tier table (AVX2 -> SSE2 -> scalar).
//
// The three kernels the profile names — Poisson log-PMF scoring, the
// mean-shift Gaussian profile, and the exp-and-renormalize pass — are bound
// by scalar log/exp. Each is exposed here as a batch function over
// contiguous arrays, implemented three times:
//
//   scalar  reference tier, bit-identical to the seed's per-element code
//           (std::log / std::exp, same expression order); compiled on every
//           platform.
//   sse2    2-lane vector tier (x86 only).
//   avx2    4-lane vector tier (x86 only).
//
// Determinism policy (DESIGN.md §5.7): the DEFAULT tier is scalar, so a
// build that never touches the knob evaluates every kernel with the seed's
// per-element expressions. Vector tiers are opt-in — RADLOC_SIMD=sse2|avx2
// (or `auto` for the best the host supports), or force_tier()
// programmatically — and replace
// libm log/exp with polynomial vector versions accurate to ~1 ulp relative;
// the parity suite (tests/test_simd.cpp) pins them against scalar at
// tolerance. Everything else in the tables (rates, max scans,
// Epanechnikov) is exact elementwise arithmetic and stays
// bit-identical across tiers. All kernels are elementwise (remainder lanes
// are computed through the same vector path via a padded tail), so results
// do not depend on how a caller chunks a range — thread-count determinism
// is preserved within every tier.
//
// Thread safety: kernels are pure functions over caller-owned buffers and
// can be fanned out freely. force_tier()/reset_tier() swap a global and
// must not race active kernel calls (tests/benches call them between runs).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace radloc::simd {

enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// One tier's kernel table. All array arguments may overlap only where a
/// parameter is documented as in/out; `n` may be 0.
struct Kernels {
  Tier tier;
  const char* name;

  /// Per-element-k Poisson log-PMF (MLE: one count per measurement):
  /// out[i] = k[i]*log(lambda[i]) - lambda[i] - log_k_factorial[i].
  /// `out` may fully alias `lambda`, but not `k`/`log_k_factorial`.
  void (*poisson_log_pmf_multi)(const double* k, const double* log_k_factorial,
                                const double* lambda, double* out, std::size_t n);

  /// Shared-count Poisson log-PMF: the summed log-PMF of `reps` readings
  /// that share one rate per element,
  /// out[i] = k_sum*log(lambda[i]) - reps*lambda[i] - log_fact_sum
  /// with k_sum = sum of the counts and log_fact_sum = sum of their log(k!)
  /// terms. One reading is reps == 1, where 1.0 * lambda is exact, so the
  /// result is PoissonLogPmf's k*log(lambda) - lambda - log(k!) bit for bit
  /// (scalar tier). Edge semantics follow the per-reading sum: k_sum < 0 ->
  /// -inf; lambda <= 0 -> (k_sum == 0 ? 0 : -inf); NaN/inf lambda propagate
  /// as the scalar expression. `out` may fully alias `lambda` (rates are
  /// scored in place).
  void (*poisson_log_pmf_fused)(double k_sum, double reps, double log_fact_sum,
                                const double* lambda, double* out, std::size_t n);

  /// Eq. (4) free-space single-source hypothesis rates from SoA particle
  /// arrays: out[i] = scale * (s[i] / (1 + (x[i]-ax)^2 + (y[i]-ay)^2)) + b
  /// with the exact association of expected_cpm_single_free_space
  /// (scale = kMicroCurieToCpm * efficiency). Exact in every tier.
  void (*hypothesis_rates)(double ax, double ay, double scale, double background, const double* x,
                           const double* y, const double* strength, double* out, std::size_t n);

  /// NaN-skipping max scan matching `if (v > m) m = v` from m = -inf.
  /// Exact in every tier. Returns -inf for n == 0.
  double (*max_value)(const double* v, std::size_t n);

  /// out[i] = exp(v[i] - shift) — the post-max renormalization pass.
  /// `out` may fully alias `v` (renormalize in place).
  void (*exp_shifted)(const double* v, double shift, double* out, std::size_t n);

  /// Mean-shift profile weights at center (cx, cy, s), truncated at the
  /// squared spatial radius r2. With d2 = (x-cx)^2 + (y-cy)^2 (exact seed
  /// order) and e = 0.5 * (d2 / h2 + (ls - s)^2 / hs2):
  ///   gaussian:     out[i] = w[i] * exp(-e)
  ///   epanechnikov: out[i] = w[i] * max(0, 1 - e/4.5)   (exact, all tiers)
  /// except that a slot with d2 > r2 or w[i] <= 0 is exactly +0 in every
  /// tier (the scalar tier skips its exp), so a caller may sum k_i * v_i
  /// over a superset of the in-radius points and get the same sums.
  void (*meanshift_profile)(bool gaussian, double cx, double cy, double s, double h2, double hs2,
                            double r2, const double* x, const double* y,
                            const double* log_strength, const double* w, double* out,
                            std::size_t n);
};

/// Best tier the host supports (cached after first call). Non-x86 builds
/// compile only the scalar tier and always report kScalar.
[[nodiscard]] Tier detected_tier();

/// The tier kernels() currently resolves to. Resolution order: a
/// force_tier() override wins; otherwise the RADLOC_SIMD environment knob
/// (scalar|sse2|avx2|auto), read once; otherwise kScalar — the
/// deterministic default. Requests above detected_tier() clamp down
/// (AVX2 -> SSE2 -> scalar).
[[nodiscard]] Tier active_tier();

/// Programmatic knob (tests/bench sweeps): route kernels() to `t`,
/// clamped to detected_tier(). Must not race in-flight kernel calls.
void force_tier(Tier t);

/// Drop the force_tier() override; back to env/default resolution.
void reset_tier();

/// True when the RADLOC_SIMD environment variable pinned a specific tier
/// (bench sweeps honor the pin instead of sweeping).
[[nodiscard]] bool tier_pinned_by_env();

/// The active tier's kernel table (one-time-resolved dispatch).
[[nodiscard]] const Kernels& kernels();

/// A specific tier's table, clamped to detected_tier().
[[nodiscard]] const Kernels& kernels_for(Tier t);

[[nodiscard]] const char* tier_name(Tier t);

/// "scalar" | "sse2" | "avx2" | "auto" (case-sensitive) -> tier; nullopt
/// on anything else. `auto` maps to detected_tier().
[[nodiscard]] std::optional<Tier> parse_tier(const char* s);

/// Tiers a bench should sweep: the env-pinned tier alone when RADLOC_SIMD
/// is set, else every tier up to detected_tier().
[[nodiscard]] std::vector<Tier> sweep_tiers();

}  // namespace radloc::simd
