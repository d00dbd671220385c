// Regional (tiled) distributed localization.
//
// The fusion-range design makes updates LOCAL: a measurement only touches
// particles within d of its sensor. That locality admits a distributed
// deployment — partition the surveillance area into tiles, run an
// independent localizer per tile over the sensors in (tile + margin), and
// route each measurement to the tiles whose margin contains its sensor.
// Tiles never communicate; a cheap merge step at the fusion center
// (merge_tile_estimates) concatenates their estimates, with each tile
// reporting only sources inside its CORE rectangle, and collapses estimates
// of neighbouring tiles that sit within the mean-shift merge radius of each
// other: one source near a seam can put a mode on each side of it.
//
// Payoffs: per-tile state is smaller (particle count scales with tile
// area), tiles process in parallel (true multi-core scaling beyond the
// mean-shift stage), and a tile failure only blinds its own region.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/sensornet/sensor.hpp"

namespace radloc {

/// The fusion center's merge of per-tile estimates. Tile t keeps only its
/// estimates inside cores[t] (a point on a shared edge belongs to the
/// lower-index tile). Then, in order of descending support, an estimate is
/// dropped if one already kept from a different tile lies within
/// `merge_radius`. The result is sorted by descending support.
[[nodiscard]] std::vector<SourceEstimate> merge_tile_estimates(
    std::span<const std::vector<SourceEstimate>> per_tile, std::span<const AreaBounds> cores,
    double merge_radius);

struct RegionalConfig {
  std::size_t tiles_x = 2;
  std::size_t tiles_y = 2;
  /// Tile bounds are expanded by this margin for sensor assignment and
  /// particle support, so sources near tile edges are seen from both
  /// sides. Should be >= the fusion range.
  double margin = 28.0;
  /// Per-tile localizer settings. The particle count is interpreted as the
  /// GLOBAL budget and divided by the number of tiles.
  LocalizerConfig localizer;
  /// Worker threads for parallel tile processing.
  std::size_t num_threads = 1;
};

class RegionalLocalizerGrid {
 public:
  /// `env` must outlive the grid. Sensors keep their global ids at the
  /// interface; routing and local re-indexing are internal.
  RegionalLocalizerGrid(const Environment& env, std::vector<Sensor> sensors,
                        RegionalConfig cfg, std::uint64_t seed);

  /// Routes one time step of measurements to the owning tiles and runs all
  /// tiles in parallel.
  void process_time_step(std::span<const Measurement> batch);

  /// Tile estimates merged by merge_tile_estimates() with the localizer's
  /// mean-shift merge radius, sorted by support.
  [[nodiscard]] std::vector<SourceEstimate> estimate();

  [[nodiscard]] std::size_t num_tiles() const { return tiles_.size(); }
  /// Core rectangle of tile t (row-major).
  [[nodiscard]] const AreaBounds& tile_core(std::size_t t) const { return tiles_[t]->core; }
  /// Number of sensors assigned to tile t (its expanded rectangle).
  [[nodiscard]] std::size_t tile_sensor_count(std::size_t t) const {
    return tiles_[t]->sensors.size();
  }

 private:
  struct Tile {
    AreaBounds core;
    Environment env;  ///< expanded bounds, same obstacles
    std::vector<Sensor> sensors;             ///< re-indexed locally
    std::vector<std::uint32_t> global_ids;   ///< local -> global id
    std::unique_ptr<MultiSourceLocalizer> localizer;
    std::vector<Measurement> inbox;          ///< this step's routed batch

    Tile(AreaBounds core_rect, Environment tile_env)
        : core(core_rect), env(std::move(tile_env)) {}
  };

  const Environment* env_;
  RegionalConfig cfg_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  /// For each global sensor id, the tiles it reports to.
  std::vector<std::vector<std::pair<std::uint32_t, SensorId>>> routes_;
  ThreadPool pool_;
};

}  // namespace radloc
