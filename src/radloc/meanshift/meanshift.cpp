#include "radloc/meanshift/meanshift.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "radloc/common/math.hpp"
#include "radloc/simd/aligned.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {

namespace {

// Particles per support chunk (fixed, not per thread, so the merged sums do
// not depend on the thread count).
constexpr std::size_t kSupportChunk = 2048;

}  // namespace

struct MeanShiftEstimator::Scratch {
  GridIndex::Layout layout;
  // The cloud in slot order: x, y, log strength, weight.
  simd::AVector<double> x;
  simd::AVector<double> y;
  simd::AVector<double> ls;
  simd::AVector<double> w;
  /// The kept modes each grid cell's particles can be assigned to (CSR):
  /// cell c's are candidates[candidate_start[c] .. candidate_start[c + 1]),
  /// in ascending mode index.
  std::vector<std::uint32_t> candidate_start;
  std::vector<std::uint32_t> candidates;
  /// Support chunk c's sums: kept.size() support then kept.size() core.
  std::vector<double> chunk_sums;
};

MeanShiftEstimator::Scratch& MeanShiftEstimator::thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

MeanShiftEstimator::MeanShiftEstimator(const AreaBounds& bounds, MeanShiftConfig cfg,
                                       ThreadPool& pool)
    : cfg_(cfg), pool_(&pool), grid_(bounds, std::max(cfg.bandwidth_xy, 1.0)) {
  require(cfg_.bandwidth_xy > 0.0, "spatial bandwidth must be positive");
  require(cfg_.bandwidth_log_strength > 0.0, "strength bandwidth must be positive");
  require(cfg_.max_seeds > 0, "need at least one seed");
  require(cfg_.min_support >= 0.0 && cfg_.min_support <= 1.0, "min_support must be in [0,1]");
}

std::vector<std::uint32_t> MeanShiftEstimator::select_seeds(
    std::span<const Point2> positions, std::span<const double> weights) const {
  // Deterministic stratified sampling proportional to weight: draw several
  // strata per requested seed, then thin by spatial separation. Mass-heavy
  // regions receive seeds in proportion to their mass, so every cluster
  // whose basin holds >~ 1/(4*max_seeds) of the weight is seeded. (Ranking
  // particles by weight would be wrong: local resampling leaves weights
  // near-uniform and the ranking would sort floating-point noise.)
  double total = 0.0;
  for (const double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) return {};

  const std::size_t strata = std::max<std::size_t>(4 * cfg_.max_seeds, 256);
  std::vector<std::uint32_t> seeds;
  const double sep2 = square(cfg_.seed_separation);
  const double step = total / static_cast<double>(strata);

  double cumulative = 0.0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < strata && seeds.size() < cfg_.max_seeds; ++j) {
    const double target = (static_cast<double>(j) + 0.5) * step;
    while (i + 1 < weights.size() && cumulative + std::max(weights[i], 0.0) < target) {
      cumulative += std::max(weights[i], 0.0);
      ++i;
    }
    bool far_enough = true;
    for (const auto s : seeds) {
      // The index check matters when seed_separation == 0: 0 < 0 is false,
      // so the distance test alone would admit the same particle once per
      // stratum and burn max_seeds duplicate ascents.
      if (s == static_cast<std::uint32_t>(i) || distance2(positions[i], positions[s]) < sep2) {
        far_enough = false;
        break;
      }
    }
    if (far_enough) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  return seeds;
}

MeanShiftEstimator::Mode MeanShiftEstimator::ascend(const Scratch& cloud, Point2 seed_pos,
                                                    double seed_log_strength) const {
  const double h2 = square(cfg_.bandwidth_xy);
  const double hs2 = square(cfg_.bandwidth_log_strength);
  const double radius = 3.0 * cfg_.bandwidth_xy;
  const double r2 = radius * radius;

  Point2 x = seed_pos;
  double s = seed_log_strength;
  double density = 0.0;
  const bool gaussian = cfg_.kernel == KernelType::kGaussian;
  const simd::Kernels& ker = simd::kernels();

  for (std::size_t iter = 0; iter < cfg_.max_iterations; ++iter) {
    // Every grid row the 3h square touches is one contiguous slot range,
    // and one kernel call adds its Σk·x, Σk·y, Σk·ls and Σk, where the
    // profile k_i = w_i * phi(e_i) is the Gaussian exp(-e) or the
    // Epanechnikov 1 - e/4.5 (a parabola hitting zero at the same 3-sigma
    // edge), and 0 outside the radius or at zero weight. The scalar tier
    // adds the in-radius particles one at a time, cell by cell and in
    // ascending index within a cell: bit for bit a per-neighbour gather.
    // The row spans come from the layout, not the thread, so every tier
    // gives the same sums at any thread count.
    double sums[4] = {0.0, 0.0, 0.0, 0.0};
    grid_.for_each_row_span(cloud.layout, x, radius, [&](std::size_t begin, std::size_t end) {
      ker.meanshift_moments(gaussian, x.x, x.y, s, h2, hs2, r2, cloud.x.data() + begin,
                            cloud.y.data() + begin, cloud.ls.data() + begin,
                            cloud.w.data() + begin, end - begin, sums);
    });
    const Point2 num_pos{sums[0], sums[1]};
    const double num_s = sums[2];
    const double denom = sums[3];
    if (denom <= 0.0) return Mode{x, s, 0.0};  // seed stranded in empty space

    const Point2 new_pos = (1.0 / denom) * num_pos;
    const double new_s = num_s / denom;
    const double shift =
        distance(new_pos, x) + cfg_.bandwidth_xy / cfg_.bandwidth_log_strength * std::abs(new_s - s);
    x = new_pos;
    s = new_s;
    density = denom;
    if (shift < cfg_.convergence_eps) break;
  }
  return Mode{x, s, density};
}

std::vector<SourceEstimate> MeanShiftEstimator::estimate(std::span<const Point2> positions,
                                                         std::span<const double> strengths,
                                                         std::span<const double> weights) const {
  require(positions.size() == strengths.size() && positions.size() == weights.size(),
          "positions/strengths/weights must have equal length");
  if (positions.empty()) return {};
  const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total_weight <= 0.0) return {};

  // Once per estimate, on the calling thread: copy the cloud into cell
  // order, paying std::log once per particle (the same libm call on the
  // same inputs as taking it per neighbour), then lend the copy to the
  // ascents.
  Scratch& sc = thread_scratch();
  grid_.sort(positions, sc.layout);
  const std::size_t np = positions.size();
  sc.x.resize(np);
  sc.y.resize(np);
  sc.ls.resize(np);
  sc.w.resize(np);
  for (std::size_t k = 0; k < np; ++k) {
    const std::uint32_t i = sc.layout.order[k];
    sc.x[k] = positions[i].x;
    sc.y[k] = positions[i].y;
    sc.ls[k] = std::log(strengths[i]);
    sc.w[k] = weights[i];
  }

  const auto seeds = select_seeds(positions, weights);
  std::vector<Mode> modes(seeds.size());
  pool_->for_each_index(seeds.size(), [&](std::size_t k) {
    const auto i = seeds[k];
    modes[k] = ascend(sc, positions[i], std::log(strengths[i]));
  });

  // Merge converged points: keep the densest representative of each cluster.
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.density > b.density; });
  std::vector<Mode> kept;
  const double merge2 = square(cfg_.merge_radius);
  for (const auto& m : modes) {
    if (m.density <= 0.0) continue;
    bool is_new = true;
    for (const auto& k : kept) {
      if (distance2(m.pos, k.pos) < merge2) {
        is_new = false;
        break;
      }
    }
    if (is_new) kept.push_back(m);
  }

  // Basin support: each particle contributes its weight to the nearest mode
  // within max(merge radius, 2h) (approximate basin assignment — exact
  // basins would need a full ascent per particle). Every kept mode is listed,
  // in ascending mode order, in each grid cell its radius square touches;
  // those cells hold every particle within the radius (for_each_cell), so a
  // particle scanning only its own cell's list with the strict `<` picks the
  // mode a scan over all kept modes would: the nearest, ties to the lower
  // index. The scan runs in index order, chunked over the pool with
  // per-chunk sums in the caller's scratch merged serially; chunk boundaries
  // are fixed (not per-thread), so the merged sums are bit-identical at any
  // thread count.
  const double assign_radius = std::max(cfg_.merge_radius, 2.0 * cfg_.bandwidth_xy);
  const double assign_radius2 = square(assign_radius);
  const double core_radius2 = square(cfg_.bandwidth_xy);
  const std::size_t nk = kept.size();
  std::vector<double> support(nk, 0.0);
  std::vector<double> core(nk, 0.0);
  if (!kept.empty()) {
    // Counting sort of (cell, mode) pairs, as GridIndex::sort files points:
    // start[c + 2] counts cell c, the scatter advances start[c + 1], and
    // start[c] ends at cell c's first candidate.
    auto& start = sc.candidate_start;
    start.assign(grid_.cell_count() + 2, 0u);
    for (const Mode& m : kept) {
      grid_.for_each_cell(m.pos, assign_radius, [&](std::size_t c) { ++start[c + 2]; });
    }
    for (std::size_t c = 2; c < start.size(); ++c) start[c] += start[c - 1];
    sc.candidates.resize(start.back());
    for (std::size_t k = 0; k < nk; ++k) {
      grid_.for_each_cell(kept[k].pos, assign_radius, [&](std::size_t c) {
        sc.candidates[start[c + 1]++] = static_cast<std::uint32_t>(k);
      });
    }
    start.pop_back();

    const std::size_t num_chunks = (np + kSupportChunk - 1) / kSupportChunk;
    sc.chunk_sums.assign(num_chunks * 2 * nk, 0.0);
    pool_->for_each_index(num_chunks, [&](std::size_t c) {
      double* sup = &sc.chunk_sums[c * 2 * nk];
      double* cor = sup + nk;
      const std::size_t begin = c * kSupportChunk;
      const std::size_t end = std::min(np, begin + kSupportChunk);
      for (std::size_t i = begin; i < end; ++i) {
        if (weights[i] <= 0.0) continue;
        double best_d2 = assign_radius2;
        std::size_t best = nk;
        const std::uint32_t cell = sc.layout.cell[i];
        for (std::uint32_t j = start[cell]; j < start[cell + 1]; ++j) {
          const std::uint32_t k = sc.candidates[j];
          const double d2 = distance2(positions[i], kept[k].pos);
          if (d2 < best_d2) {
            best_d2 = d2;
            best = k;
          }
        }
        if (best < nk) {
          sup[best] += weights[i];
          if (best_d2 <= core_radius2) cor[best] += weights[i];
        }
      }
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const double* sup = &sc.chunk_sums[c * 2 * nk];
      for (std::size_t k = 0; k < nk; ++k) {
        support[k] += sup[k];
        core[k] += sup[nk + k];
      }
    }
  }

  std::vector<SourceEstimate> out;
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const double frac = support[k] / total_weight;
    if (frac < cfg_.min_support) continue;
    // Tightness separates a converged cluster from a patch of diffuse cloud
    // that happens to clear the mass threshold.
    const double tightness = core[k] / support[k];
    if (tightness < cfg_.min_tightness) continue;
    out.push_back(SourceEstimate{kept[k].pos, std::exp(kept[k].log_strength), frac});
  }
  std::sort(out.begin(), out.end(),
            [](const SourceEstimate& a, const SourceEstimate& b) { return a.support > b.support; });
  return out;
}

}  // namespace radloc
