#include "radloc/geom/slotted_grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "radloc/common/math.hpp"

namespace radloc {

SlottedGridIndex::SlottedGridIndex(const AreaBounds& bounds, double cell_size)
    : bounds_(bounds), inv_cell_(1.0 / cell_size) {
  require(cell_size > 0.0, "grid cell size must be positive");
  require(bounds.width() > 0.0 && bounds.height() > 0.0, "grid bounds must be non-degenerate");
  nx_ = std::max<std::size_t>(static_cast<std::size_t>(std::ceil(bounds.width() / cell_size)), 1);
  ny_ = std::max<std::size_t>(static_cast<std::size_t>(std::ceil(bounds.height() / cell_size)), 1);
  max_cx_ = static_cast<std::int32_t>(nx_) - 1;
  max_cy_ = static_cast<std::int32_t>(ny_) - 1;
}

std::uint32_t SlottedGridIndex::filed_cell(std::uint32_t i) const {
  // The last cell starting at or before the slot (cells without slots share
  // their start with the next cell, so that is the one whose range holds
  // it), by a binary search whose steps compile to conditional moves.
  const std::uint32_t slot = slot_of_[i];
  const std::uint32_t* base = start_.data();
  for (std::size_t len = start_.size(); len > 1;) {
    const std::size_t half = len / 2;
    base += base[half] <= slot ? half : 0;
    len -= half;
  }
  return static_cast<std::uint32_t>(base - start_.data());
}

void SlottedGridIndex::rebuild(std::span<const Point2> points) {
  const std::size_t cells = num_cells();
  const std::size_t n = points.size();
  start_.resize(cells + 1);
  count_.assign(cells, 0);
  // slot_of_ holds each point's cell until the scatter below.
  slot_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = cell_id(points[i]);
    slot_of_[i] = cell;
    ++count_[cell];
  }
  // Every cell gets one spare slot plus its share of n/8 in proportion to
  // its population. The total depends only on n and the grid, so a relayout
  // reuses the slot array without allocating.
  const std::size_t spare = n / 8;
  start_[0] = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t share = n > 0 ? count_[c] * spare / n : 0;
    start_[c + 1] = start_[c] + count_[c] + 1 + static_cast<std::uint32_t>(share);
  }
  items_.resize(n + spare + cells);
  start_[cells] = static_cast<std::uint32_t>(items_.size());  // rounding leftovers
  std::fill(count_.begin(), count_.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = slot_of_[i];
    place(static_cast<std::uint32_t>(i), start_[cell] + count_[cell]++);
  }
}

void SlottedGridIndex::update(std::span<const Point2> points,
                              std::span<const std::uint32_t> moved) {
  require(built(), "grid update needs a prior rebuild");
  require(points.size() == slot_of_.size(), "grid update must keep the point count");
  // Check every index before touching any state, so a throw leaves the
  // index as it was.
  require(std::all_of(moved.begin(), moved.end(),
                      [n = points.size()](std::uint32_t i) { return i < n; }),
          "grid update index out of range");
  for (const std::uint32_t i : moved) {
    const std::uint32_t to = cell_id(points[i]);
    const std::uint32_t from = filed_cell(i);
    if (to == from) continue;
    // Swap-remove from the old range: its last point takes i's slot.
    const std::uint32_t last = start_[from] + --count_[from];
    place(items_[last], slot_of_[i]);
    if (!has_slack(to) && !make_room(to)) {
      // No slack in reach: lay everything out afresh (i included).
      rebuild(points);
      ++relayouts_;
      return;
    }
    place(i, start_[to] + count_[to]++);
  }
}

bool SlottedGridIndex::make_room(std::uint32_t cell) {
  const auto cells = static_cast<std::uint32_t>(num_cells());
  for (std::uint32_t d = 1; d <= kBorrowReach; ++d) {
    if (d < cells - cell && has_slack(cell + d)) {
      // Each cell from the donor down to cell + 1 moves its first point into
      // the free slot at its end and hands its first slot to its left
      // neighbour.
      for (std::uint32_t c = cell + d; c > cell; --c) {
        if (count_[c] > 0) place(items_[start_[c]], start_[c] + count_[c]);
        ++start_[c];
      }
      return true;
    }
    if (d <= cell && has_slack(cell - d)) {
      // Each cell from the donor's right neighbour up to `cell` takes its
      // left neighbour's free last slot as its first and moves its last
      // point there, which frees its own last slot.
      for (std::uint32_t c = cell - d + 1; c <= cell; ++c) {
        --start_[c];
        if (count_[c] > 0) place(items_[start_[c] + count_[c]], start_[c]);
      }
      return true;
    }
  }
  return false;
}

void SlottedGridIndex::query_radius(std::span<const Point2> points, const Point2& c, double r,
                                    std::vector<std::uint32_t>& out,
                                    std::vector<std::uint32_t>& cells) const {
  require(built(), "grid query needs a prior rebuild");
  out.clear();
  cells.clear();
  const double r2 = r * r;
  const auto [cx0, cy0] = cell_of(Point2{c.x - r, c.y - r});
  const auto [cx1, cy1] = cell_of(Point2{c.x + r, c.y + r});
  for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      const auto cell = static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ +
                                                   static_cast<std::size_t>(cx));
      const std::uint32_t end = start_[cell] + count_[cell];
      for (std::uint32_t s = start_[cell]; s < end; ++s) {
        const std::uint32_t i = items_[s];
        if (distance2(points[i], c) <= r2) {
          out.push_back(i);
          cells.push_back(cell);
        }
      }
    }
  }
}

}  // namespace radloc
