#include <gtest/gtest.h>

#include "radloc/distributed/regional.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace radloc {
namespace {

RegionalConfig grid_config(std::size_t tiles, std::size_t particles = 4000) {
  RegionalConfig cfg;
  cfg.tiles_x = tiles;
  cfg.tiles_y = tiles;
  cfg.localizer.filter.num_particles = particles;
  return cfg;
}

TEST(Regional, ConstructionPartitionsSensors) {
  const auto scenario = make_scenario_a(10.0, 5.0, false);
  RegionalLocalizerGrid grid(scenario.env, scenario.sensors, grid_config(2), 1);
  ASSERT_EQ(grid.num_tiles(), 4u);
  // Cores tile the area exactly.
  double core_area = 0.0;
  for (std::size_t t = 0; t < 4; ++t) core_area += grid.tile_core(t).area();
  EXPECT_DOUBLE_EQ(core_area, scenario.env.bounds().area());
  // Margins overlap, so tile sensor counts exceed an exact partition.
  std::size_t total_assigned = 0;
  for (std::size_t t = 0; t < 4; ++t) total_assigned += grid.tile_sensor_count(t);
  EXPECT_GT(total_assigned, scenario.sensors.size());
}

TEST(Regional, LocalizesTwoSourcesLikeMonolithic) {
  const auto scenario = make_scenario_a(20.0, 5.0, false);
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);

  RegionalLocalizerGrid grid(scenario.env, scenario.sensors, grid_config(2, 8000), 2);
  Rng noise(3);
  for (int t = 0; t < 15; ++t) grid.process_time_step(sim.sample_time_step(noise));

  const auto match = match_estimates(scenario.sources, grid.estimate());
  EXPECT_EQ(match.false_negatives, 0u);
  EXPECT_LE(match.false_positives, 1u);
  for (const auto& e : match.error) {
    ASSERT_TRUE(e.has_value());
    EXPECT_LT(*e, 10.0);
  }
}

TEST(Regional, SourceOnTileBoundaryReportedOnce) {
  // A source exactly on the 2x2 tile seam at (50, y): the margin lets both
  // tiles see it, core ownership must report it exactly once.
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  const std::vector<Source> truth{{{50.0, 50.0}, 40.0}};
  MeasurementSimulator sim(env, sensors, truth);

  RegionalLocalizerGrid grid(env, sensors, grid_config(2), 4);
  Rng noise(5);
  for (int t = 0; t < 15; ++t) grid.process_time_step(sim.sample_time_step(noise));

  const auto estimates = grid.estimate();
  std::size_t near = 0;
  for (const auto& e : estimates) {
    if (distance(e.pos, truth[0].pos) < 15.0) ++near;
  }
  EXPECT_EQ(near, 1u);
}

TEST(Regional, SeamModesOfOneSourceMergeIntoTheStronger) {
  // Two tiles split at x = 50. One source near the seam left a mode on each
  // side, 3 apart: both lie in their own tile's core, so ownership alone
  // reports the source twice. The merge keeps the stronger of the two.
  const std::vector<AreaBounds> cores{{{0, 0}, {50, 100}}, {{50, 0}, {100, 100}}};
  const std::vector<std::vector<SourceEstimate>> per_tile{
      {{{48.5, 50.0}, 40.0, 0.20}, {{20.0, 20.0}, 30.0, 0.10}, {{70.0, 10.0}, 30.0, 0.30}},
      {{{51.5, 50.5}, 42.0, 0.25}, {{60.0, 90.0}, 10.0, 0.05}, {{64.0, 90.0}, 10.0, 0.04}}};
  const auto merged = merge_tile_estimates(per_tile, cores, 6.0);
  // (70, 10) lies outside tile 0's core and is dropped; the two modes at
  // y = 90 are 4 apart but come from one tile, whose mean-shift already
  // decided they are distinct.
  const std::vector<Point2> want{{51.5, 50.5}, {20.0, 20.0}, {60.0, 90.0}, {64.0, 90.0}};
  ASSERT_EQ(merged.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(merged[k].pos, want[k]) << k;
  // Modes farther apart than the merge radius are separate sources.
  EXPECT_EQ(merge_tile_estimates(per_tile, cores, 2.5).size(), 5u);
}

TEST(Regional, NineSourcesAcrossSixteenTiles) {
  auto scenario = make_scenario_b(5.0, false);
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
  RegionalConfig cfg = grid_config(4, 16000);
  cfg.num_threads = 4;
  RegionalLocalizerGrid grid(scenario.env, scenario.sensors, cfg, 6);
  Rng noise(7);
  for (int t = 0; t < 12; ++t) grid.process_time_step(sim.sample_time_step(noise));

  const auto match = match_estimates(scenario.sources, grid.estimate());
  EXPECT_LE(match.false_negatives, 2u);
  EXPECT_LE(match.false_positives, 2u);
}

TEST(Regional, SingleTileMatchesMonolithicExactly) {
  // tiles=1 with the same seed path should behave like one localizer (same
  // config, same measurement order).
  const auto scenario = make_scenario_a(20.0, 5.0, false);
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
  Rng noise(8);
  std::vector<std::vector<Measurement>> steps;
  for (int t = 0; t < 10; ++t) steps.push_back(sim.sample_time_step(noise));

  RegionalConfig cfg = grid_config(1, 2000);
  RegionalLocalizerGrid grid(scenario.env, scenario.sensors, cfg, 9);
  for (const auto& s : steps) grid.process_time_step(s);
  const auto regional = grid.estimate();

  const auto match = match_estimates(scenario.sources, regional);
  EXPECT_EQ(match.false_negatives, 0u);
}

TEST(Regional, UnknownSensorRejected) {
  const auto scenario = make_scenario_a();
  RegionalLocalizerGrid grid(scenario.env, scenario.sensors, grid_config(2), 10);
  const std::vector<Measurement> bad{{999, 5.0}};
  EXPECT_THROW(grid.process_time_step(bad), std::invalid_argument);
}

TEST(Regional, Validation) {
  const auto scenario = make_scenario_a();
  RegionalConfig cfg = grid_config(2);
  cfg.tiles_x = 0;
  EXPECT_THROW(RegionalLocalizerGrid(scenario.env, scenario.sensors, cfg, 1),
               std::invalid_argument);
  cfg = grid_config(2);
  cfg.margin = -1.0;
  EXPECT_THROW(RegionalLocalizerGrid(scenario.env, scenario.sensors, cfg, 1),
               std::invalid_argument);
  EXPECT_THROW(RegionalLocalizerGrid(scenario.env, {}, grid_config(2), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace radloc
