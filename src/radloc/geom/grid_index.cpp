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
  cell_count_.assign(nx_ * ny_, 0);
}

std::pair<std::int32_t, std::int32_t> GridIndex::cell_of(const Point2& p) const {
  auto cx = static_cast<std::int32_t>(std::floor((p.x - bounds_.min.x) / cell_size_));
  auto cy = static_cast<std::int32_t>(std::floor((p.y - bounds_.min.y) / cell_size_));
  cx = std::clamp(cx, 0, static_cast<std::int32_t>(nx_) - 1);
  cy = std::clamp(cy, 0, static_cast<std::int32_t>(ny_) - 1);
  return {cx, cy};
}

std::uint32_t GridIndex::cell_id(const Point2& p) const {
  const auto [cx, cy] = cell_of(p);
  return static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ +
                                    static_cast<std::size_t>(cx));
}

void GridIndex::rebuild(std::span<const Point2> points) {
  // The buffers are member scratch: a steady-state rebuild or update must
  // not allocate (tests/test_alloc_steady.cpp).
  std::fill(cell_count_.begin(), cell_count_.end(), 0u);
  cell_of_point_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t cell = cell_id(points[i]);
    cell_of_point_[i] = cell;
    ++cell_count_[cell];
  }
  built_ = true;
  scatter();
}

void GridIndex::update(std::span<const Point2> points, std::span<const std::uint32_t> moved) {
  require(built_, "grid update needs a prior rebuild");
  require(points.size() == cell_of_point_.size(), "grid update must keep the point count");
  // Check every index before touching any state, so a throw leaves the
  // index as it was.
  require(std::all_of(moved.begin(), moved.end(),
                      [n = points.size()](std::uint32_t i) { return i < n; }),
          "grid update index out of range");
  bool refiled = false;
  for (const std::uint32_t i : moved) {
    const std::uint32_t cell = cell_id(points[i]);
    std::uint32_t& filed = cell_of_point_[i];
    if (cell == filed) continue;
    --cell_count_[filed];
    ++cell_count_[cell];
    filed = cell;
    refiled = true;
  }
  // The layout is a function of cell_of_point_ alone, so points that stayed
  // in their cells leave it as it is.
  if (refiled) scatter();
}

void GridIndex::scatter() {
  // Counting sort into cells (CSR): walking the points in index order keeps
  // every cell's items ascending.
  cell_start_[0] = 0;
  for (std::size_t c = 0; c < cell_count_.size(); ++c) {
    cell_start_[c + 1] = cell_start_[c] + cell_count_[c];
  }
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  items_.resize(cell_of_point_.size());
  for (std::size_t i = 0; i < cell_of_point_.size(); ++i) {
    items_[cursor_[cell_of_point_[i]]++] = static_cast<std::uint32_t>(i);
  }
}

void GridIndex::query_radius(std::span<const Point2> points, const Point2& c, double r,
                             std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_in_radius(points, c, r, [&](std::uint32_t i) { out.push_back(i); });
}

}  // namespace radloc
