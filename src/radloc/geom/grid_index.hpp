// Uniform-grid spatial index over a fixed rectangular area.
//
// Mean-shift's truncated-kernel neighbor queries use it: many radius
// queries over one fixed point set, so the index is flat (CSR layout),
// cache-friendly, and rebuilt in O(n). The fusion filter, whose particles
// move every reading, keeps its own SlottedGridIndex
// (geom/slotted_grid_index.hpp) instead.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"

namespace radloc {

class GridIndex {
 public:
  /// `bounds` is the indexable region (points outside are clamped into the
  /// border cells); `cell_size` > 0 is the grid pitch — pick it near the
  /// typical query radius.
  GridIndex(const AreaBounds& bounds, double cell_size);

  /// Rebuilds the index over `points`; item i keeps identifier i.
  void rebuild(std::span<const Point2> points);

  /// Invokes `fn(i)` for every indexed point i with ||points[i] - c|| <= r,
  /// in layout order. `points` must be the span passed to the last rebuild().
  template <typename Fn>
  void for_each_in_radius(std::span<const Point2> points, const Point2& c, double r,
                          Fn&& fn) const {
    const double r2 = r * r;
    const auto [cx0, cy0] = cell_of(Point2{c.x - r, c.y - r});
    const auto [cx1, cy1] = cell_of(Point2{c.x + r, c.y + r});
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
        const std::size_t cell = static_cast<std::size_t>(cy) * nx_ + static_cast<std::size_t>(cx);
        for (std::uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
          const std::uint32_t i = items_[k];
          if (distance2(points[i], c) <= r2) fn(i);
        }
      }
    }
  }

  /// Radius query collecting matching indices into `out` (cleared first).
  void query_radius(std::span<const Point2> points, const Point2& c, double r,
                    std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] double cell_size() const { return cell_size_; }

 private:
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> cell_of(const Point2& p) const;

  AreaBounds bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> cell_start_;  // CSR offsets, size nx*ny + 1
  std::vector<std::uint32_t> items_;       // point indices grouped by cell
  // rebuild() scratch, kept so steady-state rebuilds are allocation-free
  std::vector<std::uint32_t> cell_of_point_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace radloc
