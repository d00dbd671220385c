// The physical surveillance environment: bounds + obstacles.
//
// The *simulator* always knows the environment; the *localizer* deliberately
// does not (the paper's complex-environment setting). Keeping the obstacle
// set behind this type makes that asymmetry explicit in signatures.
#pragma once

#include <cstdint>
#include <vector>

#include "radloc/common/types.hpp"
#include "radloc/geom/segment.hpp"
#include "radloc/radiation/obstacle.hpp"

namespace radloc {

class Environment {
 public:
  explicit Environment(AreaBounds bounds, std::vector<Obstacle> obstacles = {})
      : bounds_(bounds), obstacles_(std::move(obstacles)) {
    rebuild_aabbs();
  }

  [[nodiscard]] const AreaBounds& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<Obstacle>& obstacles() const { return obstacles_; }
  [[nodiscard]] bool has_obstacles() const { return !obstacles_.empty(); }

  void add_obstacle(Obstacle o) {
    obstacles_.push_back(std::move(o));
    aabbs_.push_back(obstacles_.back().shape().aabb());
    ++revision_;
  }

  /// Monotone counter bumped on every obstacle change. Memoizing layers
  /// (the simulator's rate table, the localizer's estimate memo) compare it
  /// to detect a stale snapshot.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Sum over obstacles of mu_b * l_b along the straight path `seg` — the
  /// exponent of Eq. (3). Zero when the path is unobstructed. Obstacles whose
  /// bounding box misses the segment's are rejected before any chord-length
  /// geometry runs, so obstacle-free rays cost one AABB sweep.
  [[nodiscard]] double path_attenuation(const Segment& seg) const;

  /// exp(-path_attenuation): the fraction of intensity surviving the path.
  [[nodiscard]] double transmission(const Segment& seg) const;

  /// An identical environment with the obstacles removed (for the paper's
  /// with/without-obstacle comparisons).
  [[nodiscard]] Environment without_obstacles() const { return Environment(bounds_); }

 private:
  void rebuild_aabbs() {
    aabbs_.clear();
    aabbs_.reserve(obstacles_.size());
    for (const auto& o : obstacles_) aabbs_.push_back(o.shape().aabb());
  }

  AreaBounds bounds_;
  std::vector<Obstacle> obstacles_;
  // Flat copy of each obstacle's AABB, kept in obstacle order: the
  // path_attenuation reject sweep touches contiguous memory instead of
  // chasing into every Polygon.
  std::vector<AreaBounds> aabbs_;
  std::uint64_t revision_ = 0;
};

}  // namespace radloc
