// Weighted mean-shift mode finding over the particle cloud — Sec. V-D.
//
// The weighted particles define a kernel density estimate
//   L_P(x) = sum_i w_i * phi_H(x - p_i),
// a mixture whose modes are the source-parameter estimates. Mean-shift
// ascends L_P from many seeds; converged points are merged into modes and
// the number of surviving modes IS the learned source count K.
//
// Feature space: (x, y, log strength). Log-strength makes the 4-1000 uCi
// range scale-free under a single bandwidth (the paper leaves the strength
// bandwidth unspecified). The kernel is a diagonal Gaussian truncated at
// 3 sigma spatially. Each estimate first sorts the cloud into the cells of a
// uniform grid, so one shift step reads a few contiguous row ranges, O(local
// particles) instead of O(NP). Seeds are independent; the pool's threads
// claim them one at a time, so a few long climbs do not leave threads idle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"
#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/geom/grid_index.hpp"

namespace radloc {

/// Kernel profile for the KDE. Gaussian is the paper's choice (Eq. 6);
/// Epanechnikov (truncated parabola, zero beyond 3h) converges in fewer
/// shifts and is exposed for the kernel ablation bench.
enum class KernelType { kGaussian, kEpanechnikov };

struct MeanShiftConfig {
  KernelType kernel = KernelType::kGaussian;
  double bandwidth_xy = 5.0;        ///< spatial kernel bandwidth h (length units)
  double bandwidth_log_strength = 0.75;  ///< kernel bandwidth in log-strength
  double convergence_eps = 1e-3;    ///< stop when the shift moves less than this
  std::size_t max_iterations = 200;
  std::size_t max_seeds = 64;       ///< cap on mean-shift starting points
  double seed_separation = 5.0;     ///< min spatial distance between seeds
  double merge_radius = 6.0;        ///< modes closer than this merge (spatially)
  /// Minimum fraction of total particle weight a mode's basin must hold to
  /// be reported as a source. The particle masses of different clusters can
  /// be very uneven (clusters absorb the mass of every fusion disk that
  /// touches them), so this stays low; downstream, the localizer's
  /// detection log-LR test does the real noise filtering.
  double min_support = 0.02;
  /// Optional concentration gate: minimum fraction of a mode's basin mass
  /// lying within one spatial bandwidth of the mode. A converged source
  /// cluster (sigma ~ resampling jitter) scores ~0.7+; a locally uniform
  /// cloud scores ~ (h / basin radius)^2 ~ 0.25. Off (0) by default — kept
  /// as an ablation knob.
  double min_tightness = 0.0;
};

/// One recovered mode of L_P: a source estimate.
struct SourceEstimate {
  Point2 pos;
  double strength = 0.0;  ///< uCi (exp of the log-strength coordinate)
  double support = 0.0;   ///< fraction of total particle weight in the basin
};

class MeanShiftEstimator {
 public:
  /// `bounds` must cover all particle positions; `pool` is borrowed and must
  /// outlive the estimator.
  MeanShiftEstimator(const AreaBounds& bounds, MeanShiftConfig cfg, ThreadPool& pool);

  /// Finds all modes of the weighted particle KDE. Spans must have equal
  /// length; weights must be non-negative. Returns estimates sorted by
  /// descending support. Empty input or all-zero weights yield no estimates.
  /// Works in the calling thread's scratch, so concurrent calls from
  /// different threads are safe; the pool's jobs only read it.
  [[nodiscard]] std::vector<SourceEstimate> estimate(std::span<const Point2> positions,
                                                     std::span<const double> strengths,
                                                     std::span<const double> weights) const;

  [[nodiscard]] const MeanShiftConfig& config() const { return cfg_; }

  /// The deterministic stratified seed draw estimate() starts from: particle
  /// indices sampled proportionally to weight, thinned by seed_separation,
  /// never containing a duplicate index (a duplicate would burn one of the
  /// max_seeds ascents re-climbing the same start). Exposed for tests and
  /// diagnostics; requires equal-length spans, weights clamped at >= 0.
  [[nodiscard]] std::vector<std::uint32_t> select_seeds(std::span<const Point2> positions,
                                                        std::span<const double> weights) const;

 private:
  struct Mode {
    Point2 pos;
    double log_strength = 0.0;
    double density = 0.0;
  };

  /// One estimate's working memory: the cloud in cell order, the kept
  /// modes listed per grid cell and the support pass's per-chunk sums.
  /// Nothing in it outlives an estimate, so every estimator on a thread
  /// shares that thread's copy, reusing its capacity (meanshift.cpp).
  struct Scratch;
  /// The calling thread's Scratch. Fetched once per estimate by the thread
  /// that runs it; ascent and support jobs on the pool work in the caller's
  /// copy and never fetch their own.
  static Scratch& thread_scratch();

  /// Runs the mean-shift iteration x <- M(x) (Eq. 7) from one seed over the
  /// cell-ordered cloud estimate() put in `cloud`.
  [[nodiscard]] Mode ascend(const Scratch& cloud, Point2 seed_pos,
                            double seed_log_strength) const;

  MeanShiftConfig cfg_;
  ThreadPool* pool_;
  GridIndex grid_;  ///< cell geometry only; the layout lives in Scratch
};

}  // namespace radloc
