#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "radloc/common/math.hpp"
#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/geom/intersect.hpp"
#include "radloc/geom/polygon.hpp"
#include "radloc/geom/segment.hpp"
#include "radloc/rng/distributions.hpp"

namespace radloc {
namespace {

TEST(Segment, LengthAndInterpolation) {
  const Segment s{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(s.length(), 5.0);
  EXPECT_EQ(s.at(0.0), (Point2{0, 0}));
  EXPECT_EQ(s.at(1.0), (Point2{3, 4}));
  EXPECT_EQ(s.at(0.5), (Point2{1.5, 2.0}));
}

TEST(Polygon, RejectsDegenerate) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(Polygon, RectContainment) {
  const Polygon r = make_rect(10, 20, 30, 40);
  EXPECT_TRUE(r.contains({20, 30}));
  EXPECT_TRUE(r.contains({10.01, 20.01}));
  EXPECT_FALSE(r.contains({9.99, 30}));
  EXPECT_FALSE(r.contains({20, 40.01}));
  EXPECT_FALSE(r.contains({100, 100}));
}

TEST(Polygon, RectAabbAndArea) {
  const Polygon r = make_rect(10, 20, 30, 40);
  EXPECT_EQ(r.aabb().min, (Point2{10, 20}));
  EXPECT_EQ(r.aabb().max, (Point2{30, 40}));
  EXPECT_DOUBLE_EQ(std::abs(r.signed_area()), 400.0);
}

TEST(Polygon, UShapeContainment) {
  // U from (0,0) to (30,30), walls 5 thick, opening at the top.
  const Polygon u = make_u_shape(0, 0, 30, 30, 5.0);
  EXPECT_TRUE(u.contains({2.5, 15}));    // left wall
  EXPECT_TRUE(u.contains({27.5, 15}));   // right wall
  EXPECT_TRUE(u.contains({15, 2.5}));    // bottom wall
  EXPECT_FALSE(u.contains({15, 15}));    // the cavity
  EXPECT_FALSE(u.contains({15, 29}));    // the opening
  EXPECT_FALSE(u.contains({-1, 15}));    // outside
}

TEST(Polygon, UShapeAreaEqualsWalls) {
  const Polygon u = make_u_shape(0, 0, 30, 30, 5.0);
  // bottom 30x5 + two walls 5x25 each.
  EXPECT_NEAR(std::abs(u.signed_area()), 150.0 + 2.0 * 125.0, 1e-9);
}

TEST(Polygon, UShapeRejectsBadDimensions) {
  EXPECT_THROW(make_u_shape(0, 0, 8, 30, 5.0), std::invalid_argument);
}

TEST(SegmentIntersection, BasicCross) {
  const auto t = segment_intersection_param({{0, 0}, {10, 10}}, {{0, 10}, {10, 0}});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.5, 1e-12);
}

TEST(SegmentIntersection, ParallelReturnsNull) {
  EXPECT_FALSE(segment_intersection_param({{0, 0}, {10, 0}}, {{0, 1}, {10, 1}}).has_value());
}

TEST(SegmentIntersection, DisjointReturnsNull) {
  EXPECT_FALSE(segment_intersection_param({{0, 0}, {1, 1}}, {{5, 0}, {6, 1}}).has_value());
}

TEST(ChordLength, FullCrossingOfRect) {
  const Polygon r = make_rect(10, 0, 20, 100);
  // Horizontal segment crossing the 10-unit-wide slab.
  EXPECT_NEAR(chord_length({{0, 50}, {30, 50}}, r), 10.0, 1e-9);
}

TEST(ChordLength, DiagonalCrossing) {
  const Polygon r = make_rect(0, 0, 10, 10);
  EXPECT_NEAR(chord_length({{-5, -5}, {15, 15}}, r), 10.0 * std::sqrt(2.0), 1e-9);
}

TEST(ChordLength, EndpointInside) {
  const Polygon r = make_rect(0, 0, 10, 10);
  // Starts at the center, exits right: 5 units inside.
  EXPECT_NEAR(chord_length({{5, 5}, {20, 5}}, r), 5.0, 1e-9);
}

TEST(ChordLength, FullyInside) {
  const Polygon r = make_rect(0, 0, 10, 10);
  EXPECT_NEAR(chord_length({{2, 5}, {8, 5}}, r), 6.0, 1e-9);
}

TEST(ChordLength, Miss) {
  const Polygon r = make_rect(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(chord_length({{0, 20}, {10, 20}}, r), 0.0);
  EXPECT_DOUBLE_EQ(chord_length({{-5, -5}, {-1, -1}}, r), 0.0);
}

TEST(ChordLength, NonConvexCountsBothWalls) {
  // Segment through both walls of the U (cavity excluded).
  const Polygon u = make_u_shape(0, 0, 30, 30, 5.0);
  EXPECT_NEAR(chord_length({{-10, 15}, {40, 15}}, u), 10.0, 1e-9);
}

/// Property sweep: chord length is invariant under translation and under
/// reversing the segment, and never exceeds the segment length.
class ChordProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChordProperties, InvariantsHoldForRandomSegments) {
  Rng rng(GetParam());
  const Polygon poly = make_u_shape(20, 20, 80, 70, 8.0);
  const AreaBounds area = make_area(100, 100);
  for (int i = 0; i < 200; ++i) {
    const Segment s{uniform_point(rng, area), uniform_point(rng, area)};
    const double l = chord_length(s, poly);
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, s.length() + 1e-9);
    // Reversal symmetry.
    EXPECT_NEAR(chord_length({s.b, s.a}, poly), l, 1e-9);
    // Translation invariance (translate both by the same offset).
    const Point2 offset{13.7, -4.2};
    std::vector<Point2> moved;
    for (const auto& v : poly.vertices()) moved.push_back(v + offset);
    const Polygon poly_moved(std::move(moved));
    EXPECT_NEAR(chord_length({s.a + offset, s.b + offset}, poly_moved), l, 1e-9);
  }
}

TEST_P(ChordProperties, AdditiveUnderSplitting) {
  Rng rng(GetParam() ^ 0xABCD);
  const Polygon poly = make_rect(30, 30, 70, 70);
  const AreaBounds area = make_area(100, 100);
  for (int i = 0; i < 200; ++i) {
    const Segment s{uniform_point(rng, area), uniform_point(rng, area)};
    const Point2 mid = s.at(0.5);
    const double whole = chord_length(s, poly);
    const double halves = chord_length({s.a, mid}, poly) + chord_length({mid, s.b}, poly);
    EXPECT_NEAR(whole, halves, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordProperties, ::testing::Values(1u, 2u, 3u));

/// Radius query through the row walk: the indices of the slots the walk
/// visits that lie within `r` of `c`, in visiting order.
std::vector<std::uint32_t> row_walk_query(const GridIndex& index, const GridIndex::Layout& layout,
                                          const std::vector<Point2>& pts, const Point2& c,
                                          double r) {
  std::vector<std::uint32_t> found;
  index.for_each_row_span(layout, c, r, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t i = layout.order[k];
      if (distance2(pts[i], c) <= r * r) found.push_back(i);
    }
  });
  return found;
}

TEST(GridIndex, FindsAllPointsInRadius) {
  Rng rng(99);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (int i = 0; i < 2000; ++i) pts.push_back(uniform_point(rng, area));

  const GridIndex index(area, 10.0);
  GridIndex::Layout layout;
  index.sort(pts, layout);

  const Point2 center{40, 60};
  const double radius = 17.0;
  std::vector<std::uint32_t> found = row_walk_query(index, layout, pts, center, radius);

  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], center) <= radius) expected.push_back(i);
  }
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, expected);
}

TEST(GridIndex, HandlesPointsOutsideBounds) {
  const AreaBounds area = make_area(10, 10);
  std::vector<Point2> pts{{-5, -5}, {15, 15}, {5, 5}};
  const GridIndex index(area, 2.0);
  GridIndex::Layout layout;
  index.sort(pts, layout);
  EXPECT_EQ(row_walk_query(index, layout, pts, {-5, -5}, 1.0), (std::vector<std::uint32_t>{0}));
}

TEST(GridIndex, EmptyAndRebuild) {
  const AreaBounds area = make_area(10, 10);
  const GridIndex index(area, 1.0);
  GridIndex::Layout layout;
  index.sort({}, layout);
  EXPECT_TRUE(layout.order.empty());
  ASSERT_EQ(layout.cell_start.size(), index.cell_count() + 1);
  EXPECT_EQ(layout.cell_start.back(), 0u);
  EXPECT_TRUE(row_walk_query(index, layout, {}, {5, 5}, 100.0).empty());

  // Sorting a new set into the same layout reuses it.
  const std::vector<Point2> pts{{1, 1}, {9, 9}};
  index.sort(pts, layout);
  EXPECT_EQ(layout.order.size(), 2u);
  EXPECT_EQ(layout.cell_start.back(), 2u);
  EXPECT_EQ(row_walk_query(index, layout, pts, {0, 0}, 2.0).size(), 1u);
}

TEST(GridIndex, UpdateRejectsMisuse) {
  // SlottedGridIndex is the grid index that takes moves.
  const AreaBounds area = make_area(10, 10);
  SlottedGridIndex index(area, 2.0);
  std::vector<Point2> pts{{1, 1}, {9, 9}, {5, 5}};
  const std::vector<std::uint32_t> moved{1};
  // update() re-files points of a previous build; there is none yet.
  EXPECT_THROW(index.update(pts, moved), std::invalid_argument);
  EXPECT_THROW(index.update({}, {}), std::invalid_argument);
  std::vector<std::uint32_t> found;
  std::vector<std::uint32_t> cells;
  EXPECT_THROW(index.query_radius(pts, {3, 3}, 0.5, found, cells), std::invalid_argument);

  index.rebuild(pts);
  pts[1] = {3, 3};
  EXPECT_NO_THROW(index.update(pts, moved));
  // A different point count, or an index past the end, is a caller bug.
  pts.push_back({7, 7});
  EXPECT_THROW(index.update(pts, moved), std::invalid_argument);
  pts.pop_back();
  EXPECT_THROW(index.update(pts, std::vector<std::uint32_t>{3}), std::invalid_argument);

  index.query_radius(pts, {3, 3}, 0.5, found, cells);
  EXPECT_EQ(found, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cells, (std::vector<std::uint32_t>{index.cell_id({3, 3})}));

  // A valid index that changed cell, then a bad one: the throw must leave
  // the index untouched, so re-filing the move afterwards still works.
  pts[0] = {9, 1};
  EXPECT_THROW(index.update(pts, std::vector<std::uint32_t>{0, 3}), std::invalid_argument);
  index.update(pts, {});
  index.query_radius(pts, {9, 1}, 0.5, found, cells);
  EXPECT_TRUE(found.empty());  // point 0 is still filed in its old cell
  index.update(pts, std::vector<std::uint32_t>{0});
  index.query_radius(pts, {9, 1}, 0.5, found, cells);
  EXPECT_EQ(found, (std::vector<std::uint32_t>{0}));
}

TEST(SlottedGridIndex, BorrowsSlackThenRelayoutsWhenNoneInReach) {
  // 40 x 40 unit cells with 4 points each. Herding every point into one
  // cell, a batch at a time, overflows it: neighbours lend their slack
  // slots, and once no cell within reach has any left the index relays
  // itself out. Queries must stay exact throughout.
  const AreaBounds area = make_area(40, 40);
  SlottedGridIndex index(area, 1.0);
  Rng rng(12);
  std::vector<Point2> pts;
  for (int i = 0; i < 6400; ++i) pts.push_back(uniform_point(rng, area));
  index.rebuild(pts);
  ASSERT_EQ(index.size(), pts.size());
  const auto expect_exact = [&](const Point2& c, double r) {
    std::vector<std::uint32_t> got;
    std::vector<std::uint32_t> cells;
    index.query_radius(pts, c, r, got, cells);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance2(pts[i], c) <= r * r) want.push_back(i);
    }
    ASSERT_EQ(got, want) << "center (" << c.x << ", " << c.y << ") radius " << r;
  };
  std::vector<std::uint32_t> moved;
  for (std::uint32_t batch = 0; batch < 64; ++batch) {
    moved.clear();
    for (std::uint32_t i = batch * 100; i < (batch + 1) * 100; ++i) {
      pts[i] = {20.0 + uniform(rng, 0.0, 0.99), 20.0 + uniform(rng, 0.0, 0.99)};
      moved.push_back(i);
    }
    index.update(pts, moved);
    expect_exact({20.5, 20.5}, 0.8);
    expect_exact(uniform_point(rng, area), 3.0);
  }
  EXPECT_GT(index.relayouts(), 0u);
  expect_exact({20.0, 20.0}, 100.0);
}

TEST(GridIndex, RejectsBadConstruction) {
  EXPECT_THROW(GridIndex(make_area(10, 10), 0.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(AreaBounds{{0, 0}, {0, 10}}, 1.0), std::invalid_argument);
}

TEST(AabbSegmentOverlap, Basics) {
  const AreaBounds box{{0, 0}, {10, 10}};
  EXPECT_TRUE(aabb_overlaps_segment(box, {{-5, 5}, {15, 5}}));
  EXPECT_TRUE(aabb_overlaps_segment(box, {{5, 5}, {6, 6}}));
  EXPECT_FALSE(aabb_overlaps_segment(box, {{20, 20}, {30, 30}}));
}

}  // namespace
}  // namespace radloc
