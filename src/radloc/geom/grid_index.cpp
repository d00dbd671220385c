#include "radloc/geom/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "radloc/common/math.hpp"

namespace radloc {

GridIndex::GridIndex(const AreaBounds& bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  require(cell_size > 0.0, "grid cell size must be positive");
  require(bounds.width() > 0.0 && bounds.height() > 0.0, "grid bounds must be non-degenerate");
  nx_ = static_cast<std::size_t>(std::ceil(bounds.width() / cell_size));
  ny_ = static_cast<std::size_t>(std::ceil(bounds.height() / cell_size));
  nx_ = std::max<std::size_t>(nx_, 1);
  ny_ = std::max<std::size_t>(ny_, 1);
}

std::pair<std::int32_t, std::int32_t> GridIndex::cell_of(const Point2& p) const {
  auto cx = static_cast<std::int32_t>(std::floor((p.x - bounds_.min.x) / cell_size_));
  auto cy = static_cast<std::int32_t>(std::floor((p.y - bounds_.min.y) / cell_size_));
  cx = std::clamp(cx, 0, static_cast<std::int32_t>(nx_) - 1);
  cy = std::clamp(cy, 0, static_cast<std::int32_t>(ny_) - 1);
  return {cx, cy};
}

void GridIndex::sort(std::span<const Point2> points, Layout& layout) const {
  // Counting sort: cell_start[c + 2] counts cell c, so after the prefix sum
  // cell_start[c + 1] is cell c's first slot and the scatter can advance it
  // in place; walking the points in index order keeps every cell ascending,
  // and the scatter leaves cell_start[c] at cell c's first slot.
  auto& start = layout.cell_start;
  start.assign(cell_count() + 2, 0u);
  layout.cell.resize(points.size());
  layout.order.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [cx, cy] = cell_of(points[i]);
    const auto c =
        static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ + static_cast<std::size_t>(cx));
    layout.cell[i] = c;
    ++start[c + 2];
  }
  for (std::size_t c = 2; c < start.size(); ++c) start[c] += start[c - 1];
  for (std::size_t i = 0; i < points.size(); ++i) {
    layout.order[start[layout.cell[i] + 1]++] = static_cast<std::uint32_t>(i);
  }
  start.pop_back();
}

}  // namespace radloc
