// Uniform-grid spatial index whose points move a few at a time: the fusion
// filter's particle index for the fusion-range query "all particles within
// d of sensor S" (Eq. (5) of the paper).
//
// GridIndex packs its cells tightly (CSR), so moving one point between
// cells means rebuilding it, O(n). Here every cell owns a range of slots
// with slack at its end: re-filing a point that changed cell is a
// swap-remove from its old range and an append to its new one. When the new
// cell is full, the nearest cell with slack within kBorrowReach cells (in
// layout order) passes a slot along, one point per cell in between; only
// when none has one is the whole layout rebuilt, which relayouts() counts.
// Queries scan contiguous slot ranges, as in GridIndex. The order of points
// within a cell follows the history of moves: the same rebuild and the same
// updates give the same order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"

namespace radloc {

class SlottedGridIndex {
 public:
  /// Cells farther than this in layout order never lend a slot; a cell that
  /// finds no slack that close triggers a full relayout instead.
  static constexpr std::uint32_t kBorrowReach = 64;

  /// `bounds` is the indexable region (points outside are clamped into the
  /// border cells); `cell_size` > 0 is the grid pitch — pick it near half
  /// the typical query radius. Cell storage is allocated by the first
  /// rebuild(), not here.
  SlottedGridIndex(const AreaBounds& bounds, double cell_size);

  /// Lays the index out afresh over `points`: item i keeps identifier i,
  /// cells in row-major order, ascending identifiers within a cell, and
  /// slack of about an eighth of the points spread over the cells in
  /// proportion to their populations. O(points + cells).
  void rebuild(std::span<const Point2> points);

  /// Re-files the points whose indices are listed in `moved` (repeats and an
  /// empty list are fine) after they changed position; every other point
  /// must be where the last rebuild()/update() saw it. `points` must have the
  /// size of the last rebuild(). Cost: per listed point, one cell lookup and
  /// one O(log cells) search for the cell it is filed in; per point that
  /// changed cell, O(1) plus any slot borrowing (at most kBorrowReach
  /// steps). Misuse (no prior rebuild, a different point count, an index
  /// past the end) throws and leaves the index unchanged.
  void update(std::span<const Point2> points, std::span<const std::uint32_t> moved);

  /// Collects every indexed point i with ||points[i] - c|| <= r into `out`
  /// (cleared first) in layout order, and the cell each one is filed in into
  /// `cells` (cleared first; cells[k] == cell_id(points[out[k]])). `points`
  /// must be the span the index was last built or updated over; a query
  /// before any rebuild throws.
  void query_radius(std::span<const Point2> points, const Point2& c, double r,
                    std::vector<std::uint32_t>& out, std::vector<std::uint32_t>& cells) const;

  /// Row-major id of the cell `p` falls in (clamped into the grid).
  [[nodiscard]] std::uint32_t cell_id(const Point2& p) const {
    const auto [cx, cy] = cell_of(p);
    return static_cast<std::uint32_t>(static_cast<std::size_t>(cy) * nx_ +
                                      static_cast<std::size_t>(cx));
  }
  [[nodiscard]] std::size_t num_cells() const { return nx_ * ny_; }
  [[nodiscard]] std::size_t size() const { return slot_of_.size(); }
  /// True once rebuild() has run, i.e. when update() and queries may be used.
  [[nodiscard]] bool built() const { return !start_.empty(); }
  /// Full relayouts update() fell back to because no slack was in reach.
  [[nodiscard]] std::uint64_t relayouts() const { return relayouts_; }

 private:
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> cell_of(const Point2& p) const {
    // Truncation equals floor wherever the clamp below does not apply, and
    // is monotone, which is all the query's cell box needs.
    const auto cx = static_cast<std::int32_t>((p.x - bounds_.min.x) * inv_cell_);
    const auto cy = static_cast<std::int32_t>((p.y - bounds_.min.y) * inv_cell_);
    return {std::clamp(cx, 0, max_cx_), std::clamp(cy, 0, max_cy_)};
  }
  /// The cell whose slot range holds point i.
  [[nodiscard]] std::uint32_t filed_cell(std::uint32_t i) const;
  [[nodiscard]] bool has_slack(std::uint32_t cell) const {
    return start_[cell] + count_[cell] < start_[cell + 1];
  }
  void place(std::uint32_t i, std::uint32_t slot) {
    items_[slot] = i;
    slot_of_[i] = slot;
  }
  /// Gives the full `cell` one more slot, borrowed from the nearest cell with
  /// slack within kBorrowReach; false if there is none.
  bool make_room(std::uint32_t cell);

  AreaBounds bounds_;
  double inv_cell_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::int32_t max_cx_ = 0;  // nx_ - 1
  std::int32_t max_cy_ = 0;  // ny_ - 1
  // Cell c owns slots [start_[c], start_[c + 1]) of items_; its points fill
  // the first count_[c] of them and the rest is slack. start_ has one entry
  // per cell plus the end.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> items_;    // point index per slot
  std::vector<std::uint32_t> slot_of_;  // slot per point index
  std::uint64_t relayouts_ = 0;
};

}  // namespace radloc
