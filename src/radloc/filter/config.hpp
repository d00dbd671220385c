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
  /// particles at resampling. Paper: 3.0. (Duplicates' strengths get a
  /// fixed log-normal jitter, filter/resample.cpp.)
  double resample_noise_sigma = 3.0;

  /// Fraction of resampled slots replaced by fresh uniform particles so new
  /// sources in emptied regions are eventually found. Paper: "e.g., 5%".
  double random_replacement_frac = 0.05;

  /// Prior strength range (uCi) for particle initialization and for fresh
  /// replacement particles — the paper's dirty-bomb range, 4-1000 uCi.
  /// The floor matters: hypotheses much weaker than the weakest source of
  /// interest are indistinguishable from background noise and would form
  /// unfalsifiable ghost clusters (false positives). Strengths are drawn
  /// log-uniformly over the range (scale-free over three decades).
  double strength_min = 4.0;
  double strength_max = 1000.0;

  /// If true the filter is told the true obstacle set and applies Eq. (3)
  /// when predicting sensor readings, by exact obstacle geometry; if false
  /// (the paper's complex-environment mode) it assumes free space, Eq. (1).
  bool use_known_obstacles = false;

  /// Skip the local systematic resample + jitter when the fusion subset's
  /// effective sample size fraction ESS/|P'| exceeds this threshold — a
  /// near-uniform subset gains nothing from resampling, so the pass (and its
  /// RNG draws) is pure cost. Any value >= 1.0 disables the gate entirely:
  /// the default path resamples every update.
  double ess_resample_threshold = 1.0;

  // The scoring cache, the adaptive particle budget and the transmission
  // cache were removed, and fused same-sensor updates are no longer
  // optional: the batch ingest paths (process_all / try_process_all and the
  // service drain) always apply a run of consecutive same-sensor readings as
  // one weight update (DESIGN.md §5.9). The frozen end-to-end benchmark
  // (bench/e2e) still records these four names in its result headers, so
  // they survive as constants that cannot be set.
  static constexpr std::size_t scoring_cache_entries = 0;
  static constexpr bool adaptive_budget = false;
  static constexpr bool fused_batch_updates = true;
  static constexpr bool use_transmission_cache = false;
};

}  // namespace radloc
