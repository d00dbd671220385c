#include "radloc/filter/resample.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "radloc/common/math.hpp"
#include "radloc/rng/distributions.hpp"

namespace radloc {

std::vector<std::uint32_t> systematic_resample(Rng& rng, std::span<const double> weights,
                                               std::size_t count) {
  std::vector<std::uint32_t> out;
  systematic_resample(rng, weights, count, out);
  return out;
}

void systematic_resample(Rng& rng, std::span<const double> weights, std::size_t count,
                         std::vector<std::uint32_t>& out) {
  // A single NaN/inf weight would poison the cumulative sum and silently pin
  // every pick to one index (collapsing the subset), so non-finite input is a
  // hard error, reported explicitly rather than folded into the total.
  // Scanning also locates the first/last strictly positive weights: picks
  // must never land on a zero-weight index, which the plain cumulative walk
  // allows in two edge cases (pointer == 0 with a zero-weight prefix, and
  // pointer drifting past the total by accumulated rounding with a
  // zero-weight tail). Zeros add exactly nothing to an IEEE sum, so `total`
  // matches the pre-guard accumulate bit-for-bit and well-formed inputs
  // resample identically.
  double total = 0.0;
  std::size_t first_pos = weights.size();
  std::size_t last_pos = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    require(std::isfinite(w), "resampling weights must be finite (NaN/inf weight)");
    require(w >= 0.0, "resampling weights must be non-negative");
    if (w > 0.0) {
      if (first_pos == weights.size()) first_pos = i;
      last_pos = i;
      total += w;
    }
  }
  require(total > 0.0, "resampling needs a positive total weight");

  if (count == 0) {
    out.clear();
    return;
  }

  // Pointer k sits at (k + u) / count of the total mass and picks the first
  // index whose running sum reaches it, so index i takes the picks
  // [through(i - 1), through(i)), where through(i) counts the pointers at or
  // below its running sum. Each index writes kUnrolled entries
  // unconditionally (later indices overwrite the surplus), so the common
  // case needs no data-dependent branch. Zero weights leave the count where
  // it was; the last positive index takes every pointer still unassigned,
  // including any that rounding pushed past the total.
  constexpr std::size_t kUnrolled = 4;
  const double u = uniform01(rng);
  const auto n = static_cast<double>(count);
  out.resize(count + kUnrolled);
  std::size_t done = 0;
  double cumulative = 0.0;
  for (std::size_t i = first_pos; i < last_pos; ++i) {
    cumulative += weights[i];
    // cumulative / total < 1 here, and the argument is positive since u < 1.
    const auto through =
        std::min(count, static_cast<std::size_t>(cumulative / total * n - u + 1.0));
    const auto id = static_cast<std::uint32_t>(i);
    std::uint32_t* o = out.data() + done;
    o[0] = id;
    o[1] = id;
    o[2] = id;
    o[3] = id;
    for (std::size_t k = done + kUnrolled; k < through; ++k) out[k] = id;
    done = through;
  }
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(done),
            out.begin() + static_cast<std::ptrdiff_t>(count), static_cast<std::uint32_t>(last_pos));
  out.resize(count);
}

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kKept = kNone - 1;

}  // namespace

LocalResampler::LocalResampler(const FilterConfig& cfg, const AreaBounds& bounds)
    : cfg_(cfg),
      bounds_(bounds),
      log_strength_min_(std::log(cfg.strength_min)),
      log_strength_max_(std::log(cfg.strength_max)),
      log_keep_(std::log1p(-cfg.random_replacement_frac)) {}

Point2 LocalResampler::random_position(Rng& rng) const { return uniform_point(rng, bounds_); }

double LocalResampler::random_strength(Rng& rng) const {
  if (cfg_.log_uniform_strength) {
    return std::exp(uniform(rng, log_strength_min_, log_strength_max_));
  }
  return uniform(rng, cfg_.strength_min, cfg_.strength_max);
}

std::size_t LocalResampler::replacement_gap(Rng& rng, std::size_t cap) const {
  if (!(log_keep_ < 0.0)) return cap;  // no replacement at all
  const double gap = std::log(1.0 - uniform01(rng)) / log_keep_;
  return gap < static_cast<double>(cap) ? static_cast<std::size_t>(gap) : cap;
}

void LocalResampler::resample(Rng& rng, std::span<const std::uint32_t> subset,
                              std::span<const std::uint32_t> cells,
                              std::span<const double> posterior, double mass,
                              ParticleSpans particles, const SlottedGridIndex& index,
                              std::vector<std::uint32_t>& moved) {
  const std::size_t n = subset.size();
  systematic_resample(rng, posterior, n, picks_);

  // A drawn particle's first copy stays in its own slot, unjittered. Every
  // other draw — a jittered duplicate, or a fresh particle replacing a draw
  // (Sec. V-E, last para.) — is staged until all draws are made, since the
  // slots it may land in are still being read. Replaced draws are found by
  // geometric gaps, one uniform per replacement rather than one per slot.
  slot_next_.assign(n, kNone);  // kKept marks the slots that keep their particle
  drawn_.clear();
  std::size_t fresh = replacement_gap(rng, n);
  std::uint32_t prev = kNone;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t pick = picks_[k];
    if (k == fresh) {
      drawn_.push_back(Drawn{random_position(rng), random_strength(rng)});
      fresh = k + 1 + replacement_gap(rng, n);
    } else if (pick != prev) {
      slot_next_[pick] = kKept;
    } else {
      // Duplicated particle: regularization jitter (Gordon et al. [24]).
      const std::uint32_t i = subset[pick];
      Drawn d{particles.positions[i], particles.strengths[i]};
      d.pos.x += normal(rng, 0.0, cfg_.resample_noise_sigma);
      d.pos.y += normal(rng, 0.0, cfg_.resample_noise_sigma);
      d.pos = bounds_.clamp(d.pos);
      if (cfg_.strength_jitter_sigma > 0.0) {
        d.strength *= std::exp(normal(rng, 0.0, cfg_.strength_jitter_sigma));
        d.strength = std::clamp(d.strength, cfg_.strength_min, cfg_.strength_max);
      }
      drawn_.push_back(d);
    }
    prev = pick;
  }

  // Per-cell lists of the slots left free, in subset order.
  cell_head_.resize(index.num_cells(), kNone);
  for (std::size_t k = n; k-- > 0;) {
    if (slot_next_[k] == kKept) continue;
    slot_next_[k] = cell_head_[cells[k]];
    cell_head_[cells[k]] = static_cast<std::uint32_t>(k);
  }
  const auto write = [&](std::size_t k, const Drawn& d) {
    const std::uint32_t i = subset[k];
    particles.positions[i] = d.pos;
    particles.strengths[i] = d.strength;
  };
  // Each staged draw takes the next free slot of the cell it landed in...
  leftover_.clear();
  for (std::size_t j = 0; j < drawn_.size(); ++j) {
    const std::uint32_t cell = index.cell_id(drawn_[j].pos);
    const std::uint32_t k = cell_head_[cell];
    if (k == kNone) {
      leftover_.push_back(static_cast<std::uint32_t>(j));
      continue;
    }
    cell_head_[cell] = slot_next_[k];
    slot_next_[k] = kKept;
    write(k, drawn_[j]);
  }
  // ...and the leftover draws fill the remaining free slots in subset order;
  // these are the only particles that change cell. Every slot gets the
  // uniform weight.
  const double w = mass / static_cast<double>(n);
  moved.clear();
  std::size_t next = 0;
  for (std::size_t k = 0; k < n; ++k) {
    cell_head_[cells[k]] = kNone;
    particles.weights[subset[k]] = w;
    if (slot_next_[k] == kKept) continue;
    write(k, drawn_[leftover_[next++]]);
    moved.push_back(subset[k]);
  }
}

}  // namespace radloc
