// Uniform-grid cell layout over a fixed rectangular area.
//
// Mean-shift climbs over a cell-ordered copy of the particle cloud: sort()
// counting-sorts a point set into cells (row-major, each cell's points in
// ascending index order), and a radius query then reads, for every grid row
// the query's bounding square touches, one contiguous slot range
// (for_each_row_span); for_each_cell lists the cells a square touches, for
// per-cell candidate lists. The index itself holds only the grid geometry;
// the layout lives in caller-owned buffers, so one index serves any number
// of point sets and threads. The fusion filter, whose particles move every
// reading, keeps its own SlottedGridIndex (geom/slotted_grid_index.hpp)
// instead.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "radloc/common/types.hpp"

namespace radloc {

class GridIndex {
 public:
  /// A point set in cell order. Slots [cell_start[c], cell_start[c + 1])
  /// hold cell c's points; order[k] is the index of the point in slot k.
  struct Layout {
    std::vector<std::uint32_t> cell_start;  ///< cell_count() + 1 offsets
    std::vector<std::uint32_t> order;       ///< slot -> point index
    std::vector<std::uint32_t> cell;        ///< point -> cell id
  };

  /// `bounds` is the indexable region (points outside are clamped into the
  /// border cells); `cell_size` > 0 is the grid pitch — pick it near the
  /// typical query radius. Allocates nothing.
  GridIndex(const AreaBounds& bounds, double cell_size);

  /// Counting-sorts `points` into `layout`, reusing its buffers.
  void sort(std::span<const Point2> points, Layout& layout) const;

  /// Invokes `fn(begin, end)` for every grid row, lowest first, that the
  /// square of half-side `r` around `c` touches: [begin, end) is the slot
  /// range of that row's cells inside the square. The ranges cover every
  /// point within `r` of `c` (plus some beyond it), cell by cell and in
  /// ascending index order within a cell. `layout` must come from sort().
  template <typename Fn>
  void for_each_row_span(const Layout& layout, const Point2& c, double r, Fn&& fn) const {
    const auto [cx0, cy0] = cell_of(Point2{c.x - r, c.y - r});
    const auto [cx1, cy1] = cell_of(Point2{c.x + r, c.y + r});
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      const std::size_t row = static_cast<std::size_t>(cy) * nx_;
      fn(layout.cell_start[row + static_cast<std::size_t>(cx0)],
         layout.cell_start[row + static_cast<std::size_t>(cx1) + 1]);
    }
  }

  /// Invokes `fn(cell)` for every cell id, row by row and lowest first, that
  /// the square of half-side `r` around `c` touches, clamped to the grid as
  /// sort() files points. Every point p with distance2(p, c) < r * r (the
  /// strict floating-point test) is filed in one of them: that test implies
  /// |p.x - c.x| < r exactly, so p.x >= fl(c.x - r) and p.x <= fl(c.x + r)
  /// (likewise in y), and the clamped cell_of is monotone in each axis.
  template <typename Fn>
  void for_each_cell(const Point2& c, double r, Fn&& fn) const {
    const auto [cx0, cy0] = cell_of(Point2{c.x - r, c.y - r});
    const auto [cx1, cy1] = cell_of(Point2{c.x + r, c.y + r});
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      const std::size_t row = static_cast<std::size_t>(cy) * nx_;
      for (std::int32_t cx = cx0; cx <= cx1; ++cx) fn(row + static_cast<std::size_t>(cx));
    }
  }

  [[nodiscard]] std::size_t cell_count() const { return nx_ * ny_; }
  [[nodiscard]] double cell_size() const { return cell_size_; }

 private:
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> cell_of(const Point2& p) const;

  AreaBounds bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
};

}  // namespace radloc
