// Systematic resampling, and the fusion filter's local resample built on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"
#include "radloc/filter/config.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/rng/rng.hpp"

namespace radloc {

/// Systematic (stratified, single-offset) resampling: draws `count` indices
/// in [0, weights.size()) with probability proportional to weights[i].
/// Weights need not be normalized but must be finite and non-negative with a
/// positive sum (violations throw std::invalid_argument — a single NaN would
/// otherwise silently collapse every pick onto one index). Output indices are
/// non-decreasing, and every returned index has strictly positive weight.
[[nodiscard]] std::vector<std::uint32_t> systematic_resample(Rng& rng,
                                                             std::span<const double> weights,
                                                             std::size_t count);

/// Allocation-free variant for per-reading callers: fills `out` (its old
/// contents replaced, capacity reused) instead of returning a fresh vector.
/// Identical semantics and RNG draw order — the uniform offset is consumed
/// only when count > 0, exactly like the returning overload.
void systematic_resample(Rng& rng, std::span<const double> weights, std::size_t count,
                         std::vector<std::uint32_t>& out);

/// Writable struct-of-arrays views of a particle population.
struct ParticleSpans {
  std::span<Point2> positions;
  std::span<double> strengths;
  std::span<double> weights;
};

/// The fusion filter's local resample (Sec. V-E) of one reading's subset P',
/// with the prior it draws fresh particles from. Its scratch buffers keep
/// their capacity, so a steady-state resample does not allocate.
class LocalResampler {
 public:
  /// Reads the jitter, replacement and strength-prior fields of `cfg`;
  /// fresh particles are drawn inside `bounds`.
  LocalResampler(const FilterConfig& cfg, const AreaBounds& bounds);

  /// A fresh particle from the prior: a uniform position in the bounds, and
  /// a strength uniform (or log-uniform) over [strength_min, strength_max].
  [[nodiscard]] Point2 random_position(Rng& rng) const;
  [[nodiscard]] double random_strength(Rng& rng) const;

  /// Redraws the particles `subset` in proportion to `posterior` (systematic,
  /// one weight per subset entry, unnormalised), jitters duplicated draws
  /// (position by N(0, resample_noise_sigma), strength by a log-normal
  /// factor), swaps each draw for a fresh prior particle with probability
  /// random_replacement_frac, and writes the draws back into the subset's
  /// slots with the uniform weight mass / |subset|, each slot once.
  ///
  /// Which slot a draw lands in does not change the population, so a drawn
  /// particle's first copy keeps its own slot, and every other draw takes a
  /// free slot filed in the index cell it landed in while that cell has one
  /// left. Only the draws left over change cell: `moved` is set to the
  /// particles that now lie outside the cell `index` files them in, the list
  /// to pass to index.update(). `cells[k]` must be the cell `index` files
  /// subset[k] in.
  void resample(Rng& rng, std::span<const std::uint32_t> subset,
                std::span<const std::uint32_t> cells, std::span<const double> posterior,
                double mass, ParticleSpans particles, const SlottedGridIndex& index,
                std::vector<std::uint32_t>& moved);

 private:
  struct Drawn {
    Point2 pos;
    double strength;
  };
  /// Slots to skip before the next replaced one: Geometric(frac) failures,
  /// capped at `cap`.
  [[nodiscard]] std::size_t replacement_gap(Rng& rng, std::size_t cap) const;

  FilterConfig cfg_;
  AreaBounds bounds_;
  // Hoisted out of the per-particle draws.
  double log_strength_min_;
  double log_strength_max_;
  double log_keep_;  ///< log(1 - random_replacement_frac)

  std::vector<std::uint32_t> picks_;
  std::vector<Drawn> drawn_;
  std::vector<std::uint32_t> cell_head_;  ///< per index cell; kNone between calls
  std::vector<std::uint32_t> slot_next_;  ///< per subset slot: kept, or free-list link
  std::vector<std::uint32_t> leftover_;  ///< draws that found no slot in their cell
};

}  // namespace radloc
