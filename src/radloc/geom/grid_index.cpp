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
  cell_start_.assign(nx_ * ny_ + 1, 0);
}

std::pair<std::int32_t, std::int32_t> GridIndex::cell_of(const Point2& p) const {
  auto cx = static_cast<std::int32_t>(std::floor((p.x - bounds_.min.x) / cell_size_));
  auto cy = static_cast<std::int32_t>(std::floor((p.y - bounds_.min.y) / cell_size_));
  cx = std::clamp(cx, 0, static_cast<std::int32_t>(nx_) - 1);
  cy = std::clamp(cy, 0, static_cast<std::int32_t>(ny_) - 1);
  return {cx, cy};
}

void GridIndex::rebuild(std::span<const Point2> points) {
  std::fill(cell_start_.begin(), cell_start_.end(), 0u);
  items_.resize(points.size());

  // Counting sort into cells (CSR): walking the points in index order keeps
  // every cell's items ascending. The two passes reuse member scratch, so a
  // steady-state rebuild does not allocate.
  cell_of_point_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [cx, cy] = cell_of(points[i]);
    const auto cell =
        static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ + static_cast<std::size_t>(cx));
    cell_of_point_[i] = cell;
    ++cell_start_[cell + 1];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    items_[cursor_[cell_of_point_[i]]++] = static_cast<std::uint32_t>(i);
  }
}

void GridIndex::query_radius(std::span<const Point2> points, const Point2& c, double r,
                             std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_in_radius(points, c, r, [&](std::uint32_t i) { out.push_back(i); });
}

}  // namespace radloc
