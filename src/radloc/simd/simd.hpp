// Batch kernels for the particle hot path, behind a runtime-dispatched
// tier table (AVX2 -> SSE2 -> scalar).
//
// The three kernels the profile names — Poisson log-PMF scoring, the
// mean-shift step, and the exp-and-renormalize pass — are bound by scalar
// log/exp. Each is exposed here as a batch function over contiguous
// arrays, implemented three times:
//
//   scalar  portable reference tier (std::log / std::exp, per-element
//           expressions in the order the callers once ran them); compiled
//           on every platform.
//   sse2    2-lane vector tier (x86 only).
//   avx2    4-lane vector tier (x86 only).
//
// Tier policy (DESIGN.md §5.7): the DEFAULT tier is the best one the host
// supports (detected_tier()). RADLOC_SIMD=scalar (or force_tier())
// pins the portable tier, which is what non-x86 builds run and what the
// parity suite (tests/test_simd.cpp) measures the vector tiers against.
// Vector tiers replace libm log/exp with polynomial vector versions
// accurate to ~1 ulp relative and sum the mean-shift step lane-wise; rates
// and max scans are exact elementwise arithmetic. On the default filter
// path the tier cannot reach the particle cloud (§5.7 explains why), so
// the choice moves estimates by rounding only. Elementwise kernels push
// remainder lanes through the same vector path via a padded tail, so their
// results never depend on how a caller chunks a range; the one reducing
// kernel, meanshift_moments, is called on ranges the caller fixes (grid
// rows), so results stay bit-identical across thread counts within every
// tier.
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

  /// One mean-shift step's moments over a slot range, centre (cx, cy, s)
  /// truncated at the squared spatial radius r2. With
  /// d2 = (x-cx)^2 + (y-cy)^2 and e = 0.5 * (d2 / h2 + (ls - s)^2 / hs2),
  ///   gaussian:     k_i = w[i] * exp(-e)
  ///   epanechnikov: k_i = w[i] * max(0, 1 - e/4.5)
  /// and k_i = 0 for a slot with d2 > r2 or w[i] <= 0. Adds Σk·x, Σk·y,
  /// Σk·ls and Σk to sums[0..3] (the caller zeroes them once per step).
  /// The scalar tier adds slot by slot in range order and skips the
  /// zero slots, so a caller summing row after row gets the sums of a
  /// per-neighbour loop bit for bit. Vector tiers skip a lane block with
  /// no in-radius positive-weight slot (no division, no exp), accumulate
  /// lane-wise (multiply, then add) and fold the lanes into sums in lane
  /// order at the end of the call: deterministic for a given range, within
  /// rounding of the scalar sums.
  void (*meanshift_moments)(bool gaussian, double cx, double cy, double s, double h2,
                            double hs2, double r2, const double* x, const double* y,
                            const double* log_strength, const double* w, std::size_t n,
                            double* sums);
};

/// Best tier the host supports (cached after first call). Non-x86 builds
/// compile only the scalar tier and always report kScalar.
[[nodiscard]] Tier detected_tier();

/// The tier kernels() currently resolves to. Resolution order: a
/// force_tier() override wins; otherwise the RADLOC_SIMD environment knob
/// (scalar|sse2|avx2|auto), read once; otherwise detected_tier(). An
/// unrecognised knob value warns on stderr and resolves like an unset one.
/// Requests above detected_tier() clamp down (AVX2 -> SSE2 -> scalar).
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
