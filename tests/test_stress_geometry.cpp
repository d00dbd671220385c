// Deterministic stress harness for the geometry layer: exact transmission
// through pathological obstacle shapes, GridIndex radius queries checked
// against brute force through rebuild churn and boundary cases, and
// SlottedGridIndex queries checked against brute force, and for a
// reproducible order, through incremental update() churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/geom/polygon.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/radiation/obstacle.hpp"
#include "radloc/rng/distributions.hpp"

namespace radloc {
namespace {

TEST(StressGeometry, PathologicalObstacleGeometryKeepsTransmissionPhysical) {
  const AreaBounds area = make_area(100.0, 100.0);
  struct Case {
    const char* name;
    Environment env;
  };
  const Case cases[] = {
      {"sliver wall", Environment(area, {Obstacle(make_rect(50.0, 0.0, 50.001, 100.0), 0.5)})},
      {"area-covering slab", Environment(area, {Obstacle(make_rect(0.0, 0.0, 100.0, 100.0), 0.02)})},
      {"opaque block", Environment(area, {Obstacle(make_rect(30.0, 30.0, 70.0, 70.0), 1e6)})},
      {"transparent block", Environment(area, {Obstacle(make_rect(30.0, 30.0, 70.0, 70.0), 0.0)})},
      {"stacked overlapping slabs",
       Environment(area, {Obstacle(make_rect(20.0, 0.0, 40.0, 100.0), 0.0693),
                          Obstacle(make_rect(30.0, 0.0, 50.0, 100.0), 0.0693),
                          Obstacle(make_rect(35.0, 40.0, 36.0, 60.0), 0.5)})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // One origin outside the blocks, one deliberately inside the 30..70 block.
    for (const Point2 origin : {Point2{5.0, 5.0}, Point2{50.0, 50.0}}) {
      Rng rng(17);
      for (int i = 0; i < 200; ++i) {
        const Point2 target = uniform_point(rng, area);
        const double t = c.env.transmission(Segment{origin, target});
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GE(t, 0.0);
        ASSERT_LE(t, 1.0);
      }
    }
  }

  // The area-covering slab has no edges inside the bounds, so every ray's
  // attenuation is mu * its length.
  Environment slab(area, {Obstacle(make_rect(0.0, 0.0, 100.0, 100.0), 0.02)});
  const Point2 origin{5.0, 5.0};
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const Point2 target = uniform_point(rng, area);
    EXPECT_NEAR(slab.transmission(Segment{origin, target}),
                std::exp(-0.02 * distance(origin, target)), 1e-9);
  }
}

/// Checks that `layout` is `points` in cell order: a permutation whose slots
/// never go back to an earlier cell, ascending in index within a cell.
void expect_cell_ordered(const GridIndex& index, const GridIndex::Layout& layout,
                         const std::vector<Point2>& points) {
  ASSERT_EQ(layout.cell_start.size(), index.cell_count() + 1);
  ASSERT_EQ(layout.cell_start.back(), points.size());
  std::vector<std::uint32_t> sorted = layout.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
  for (std::size_t c = 0; c < index.cell_count(); ++c) {
    ASSERT_LE(layout.cell_start[c], layout.cell_start[c + 1]);
    for (std::size_t k = layout.cell_start[c]; k < layout.cell_start[c + 1]; ++k) {
      ASSERT_EQ(layout.cell[layout.order[k]], c) << "slot " << k;
      if (k > layout.cell_start[c]) {
        ASSERT_LT(layout.order[k - 1], layout.order[k]);
      }
    }
  }
}

/// The row walk around `center`, filtered to `radius`, finds exactly the
/// brute-force index set, each index once.
void expect_matches_brute_force(const GridIndex& index, const GridIndex::Layout& layout,
                                const std::vector<Point2>& points, const Point2& center,
                                double radius) {
  std::vector<std::uint32_t> got;
  index.for_each_row_span(layout, center, radius, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t i = layout.order[k];
      if (distance2(points[i], center) <= radius * radius) got.push_back(i);
    }
  });
  std::sort(got.begin(), got.end());

  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (distance2(points[i], center) <= radius * radius) want.push_back(i);
  }
  ASSERT_EQ(got, want) << "center (" << center.x << ", " << center.y << ") radius " << radius;
}

TEST(StressGeometry, GridIndexMatchesBruteForceAcrossSeedsAndRadii) {
  const AreaBounds area = make_area(100.0, 100.0);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = 50 + uniform_index(rng, 500);
    std::vector<Point2> points;
    for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng, area));
    // A few points pinned exactly on the boundary and corners.
    points.push_back({0.0, 0.0});
    points.push_back({100.0, 100.0});
    points.push_back({0.0, 100.0});
    points.push_back({50.0, 0.0});

    const GridIndex index(area, 7.0);
    GridIndex::Layout layout;
    index.sort(points, layout);
    expect_cell_ordered(index, layout, points);

    for (const double radius : {0.0, 0.5, 7.0, 33.0, 1000.0}) {
      // Centers inside, on the boundary, and far outside the area.
      expect_matches_brute_force(index, layout, points, uniform_point(rng, area), radius);
      expect_matches_brute_force(index, layout, points, {0.0, 0.0}, radius);
      expect_matches_brute_force(index, layout, points, {100.0, 50.0}, radius);
      expect_matches_brute_force(index, layout, points, {250.0, -80.0}, radius);
    }
  }
}

TEST(StressGeometry, GridIndexSurvivesRebuildChurnAndDegenerateSets) {
  const AreaBounds area = make_area(100.0, 100.0);
  const GridIndex index(area, 5.0);
  GridIndex::Layout layout;
  Rng rng(29);

  // Empty set: no matches anywhere.
  std::vector<Point2> points;
  index.sort(points, layout);
  expect_cell_ordered(index, layout, points);
  expect_matches_brute_force(index, layout, points, {50.0, 50.0}, 1000.0);

  // Every point identical: all or nothing depending on radius.
  points.assign(137, Point2{42.0, 42.0});
  index.sort(points, layout);
  expect_cell_ordered(index, layout, points);
  expect_matches_brute_force(index, layout, points, {42.0, 42.0}, 0.0);
  expect_matches_brute_force(index, layout, points, {43.0, 42.0}, 0.5);

  // Re-sort churn with wildly varying sizes into one layout; brute-force
  // parity each time.
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = uniform_index(rng, 300);
    points.clear();
    for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng, area));
    index.sort(points, layout);
    expect_cell_ordered(index, layout, points);
    expect_matches_brute_force(index, layout, points, uniform_point(rng, area), 12.0);
  }
}

/// Asserts that `index` answers every query with exactly the brute-force
/// index set, each index once and paired with its cell, and that `twin`,
/// which went through the same build and updates, answers in the same order.
void expect_exact_and_reproducible(const SlottedGridIndex& index, const SlottedGridIndex& twin,
                                   const AreaBounds& area, double cell,
                                   const std::vector<Point2>& points, Rng& rng) {
  ASSERT_EQ(index.size(), points.size());
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> cells;
  std::vector<std::uint32_t> twin_got;
  std::vector<std::uint32_t> twin_cells;
  for (const double radius : {0.0, 2.5, 5.0, 12.0, 40.0, 1000.0}) {
    const Point2 centers[] = {uniform_point(rng, area), uniform_point(rng, area),
                              uniform_point(rng, area), {0.0, 0.0},
                              {cell * 3.0, cell * 7.0}, {-20.0, 130.0}};
    for (const Point2& center : centers) {
      index.query_radius(points, center, radius, got, cells);
      twin.query_radius(points, center, radius, twin_got, twin_cells);
      ASSERT_EQ(got, twin_got) << "same history, different order: center (" << center.x << ", "
                               << center.y << ") radius " << radius;
      ASSERT_EQ(cells.size(), got.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(cells[k], index.cell_id(points[got[k]])) << "index " << got[k];
      }
      std::vector<std::uint32_t> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
          << "an index reported twice";
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < points.size(); ++i) {
        if (distance2(points[i], center) <= radius * radius) want.push_back(i);
      }
      ASSERT_EQ(sorted, want) << "center (" << center.x << ", " << center.y << ") radius "
                              << radius;
    }
  }
}

TEST(StressGeometry, SlottedGridIndexUpdateMatchesBruteForceThroughPartialMoves) {
  const AreaBounds area = make_area(100.0, 100.0);
  constexpr double kCell = 5.0;
  Rng rng(31);
  std::vector<Point2> points;
  for (int i = 0; i < 800; ++i) points.push_back(uniform_point(rng, area));
  SlottedGridIndex index(area, kCell);
  SlottedGridIndex twin(area, kCell);
  index.rebuild(points);
  twin.rebuild(points);

  std::vector<std::uint32_t> moved;
  const auto move_to = [&](std::uint64_t i, const Point2& p) {
    points[i] = p;
    moved.push_back(static_cast<std::uint32_t>(i));
  };
  const auto on_grid_line = [&] { return kCell * static_cast<double>(uniform_index(rng, 21)); };
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    moved.clear();
    switch (round % 5) {
      case 0: {
        // A clustered subset, the way a local resample moves it: jittered
        // copies around a center, some pushed past the area's edge.
        const Point2 c = uniform_point(rng, area);
        for (std::uint32_t i = 0; i < points.size(); ++i) {
          if (distance2(points[i], c) <= 15.0 * 15.0) {
            move_to(i, {c.x + normal(rng, 0.0, 6.0), c.y + normal(rng, 0.0, 6.0)});
          }
        }
        break;
      }
      case 1:
        // Onto cell borders, the area's edges and its corners.
        for (int k = 0; k < 40; ++k) {
          move_to(uniform_index(rng, points.size()), {on_grid_line(), on_grid_line()});
        }
        break;
      case 2:
        // Far outside the bounds (clamped into border cells), with every
        // index listed at least twice.
        for (int k = 0; k < 20; ++k) {
          move_to(uniform_index(rng, 8), {uniform(rng, -60.0, 160.0), uniform(rng, -60.0, 160.0)});
          moved.push_back(moved.back());
        }
        break;
      case 3:
        // Nothing moved.
        break;
      default:
        // Every point moved.
        for (std::uint32_t i = 0; i < points.size(); ++i) move_to(i, uniform_point(rng, area));
        break;
    }
    index.update(points, moved);
    twin.update(points, moved);
    expect_exact_and_reproducible(index, twin, area, kCell, points, rng);
  }

  // Listed but not moved at all, and moved within its own cell: the index
  // must still match brute force.
  moved.assign({3, 3, 17});
  points[17] = {std::floor(points[17].x / kCell) * kCell + 0.5 * kCell,
                std::floor(points[17].y / kCell) * kCell + 0.5 * kCell};
  index.update(points, moved);
  twin.update(points, moved);
  expect_exact_and_reproducible(index, twin, area, kCell, points, rng);
  EXPECT_EQ(index.relayouts(), twin.relayouts());
}

}  // namespace
}  // namespace radloc
