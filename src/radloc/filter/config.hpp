// Tunables of the fusion-range particle filter (Sec. V).
#pragma once

#include <cstddef>

namespace radloc {

struct FilterConfig {
  /// NP — number of particles. Paper: 2000 for the 100x100 scenarios,
  /// 15000 for the 260x260 ones ("proportional to the area increase").
  std::size_t num_particles = 2000;

  /// Fusion range d_i (Eq. 5): only particles within this distance of the
  /// reporting sensor are touched by an update. Paper: 28 for sensors on a
  /// 20-unit grid ("a particle is within the fusion range of a handful of
  /// sensors").
  double fusion_range = 28.0;

  /// sigma_N — std-dev of the Gaussian position jitter added to duplicated
  /// particles at resampling. Paper: 3.0.
  double resample_noise_sigma = 3.0;

  /// Multiplicative log-normal jitter on the strength of duplicated
  /// particles: strength *= exp(N(0, sigma)). The paper jitters "the
  /// duplicated particles" without giving a strength value; a relative
  /// jitter keeps the 4-1000 uCi range scale-free.
  double strength_jitter_sigma = 0.10;

  /// Fraction of resampled slots replaced by fresh uniform particles so new
  /// sources in emptied regions are eventually found. Paper: "e.g., 5%".
  double random_replacement_frac = 0.05;

  /// Prior strength range (uCi) for particle initialization and for fresh
  /// replacement particles — the paper's dirty-bomb range, 4-1000 uCi.
  /// The floor matters: hypotheses much weaker than the weakest source of
  /// interest are indistinguishable from background noise and would form
  /// unfalsifiable ghost clusters (false positives).
  double strength_min = 4.0;
  double strength_max = 1000.0;

  /// Draw initial strengths log-uniformly (scale-free over three decades).
  /// false = uniform, the literal reading of "uniformly random particles".
  bool log_uniform_strength = true;

  /// If true the filter is told the true obstacle set and applies Eq. (3)
  /// when predicting sensor readings; if false (the paper's complex-
  /// environment mode) it assumes free space, Eq. (1).
  bool use_known_obstacles = false;

  /// Memoize per-sensor transmission fields on a uniform grid (see
  /// radiation/transmission_cache.hpp); only meaningful with
  /// use_known_obstacles. Default off: the cache trades a bounded
  /// interpolation error for speed, and with it off the likelihood numerics
  /// are exactly the seed's.
  bool use_transmission_cache = false;

  /// Grid pitch (length units) of the memoized transmission field. Smaller
  /// is more accurate; the per-sensor build cost grows as 1/cell^2.
  double transmission_cache_cell = 2.0;

  /// Fuse consecutive same-sensor readings in the batch ingest paths
  /// (process_all / try_process_all and the service drain) into ONE weight
  /// update: log-likelihoods add, so K readings cost one subset traversal,
  /// one exp/renormalize pass, and at most one resample instead of K. The
  /// fused posterior equals the serial one up to floating-point reordering
  /// (tolerance-pinned, DESIGN.md §5.9) and up to resample placement: the
  /// serial path may resample between the K readings, the fused path at most
  /// once after them — both are valid filter iterations over the same
  /// evidence. Requires a static movement model (per-reading prediction
  /// would be skipped otherwise; the filter falls back to serial updates
  /// when a non-static model is set). Default off: the seed path.
  bool fused_batch_updates = false;

  /// Skip the local systematic resample + jitter when the fusion subset's
  /// effective sample size fraction ESS/|P'| exceeds this threshold — a
  /// near-uniform subset gains nothing from resampling, so the pass (and its
  /// RNG draws) is pure cost. Any value >= 1.0 disables the gate entirely:
  /// the default path resamples every update.
  double ess_resample_threshold = 1.0;

  // The scoring cache and the adaptive particle budget were removed
  // (DESIGN.md §5.9). The frozen end-to-end benchmark (bench/e2e) still
  // records these two names in its result headers, so they survive as
  // constants that cannot be set.
  static constexpr std::size_t scoring_cache_entries = 0;
  static constexpr bool adaptive_budget = false;
};

}  // namespace radloc
