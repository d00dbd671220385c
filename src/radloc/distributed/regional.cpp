#include "radloc/distributed/regional.hpp"

#include <algorithm>
#include <cmath>

#include "radloc/common/math.hpp"

namespace radloc {

RegionalLocalizerGrid::RegionalLocalizerGrid(const Environment& env,
                                             std::vector<Sensor> sensors, RegionalConfig cfg,
                                             std::uint64_t seed)
    : env_(&env), cfg_(cfg), pool_(cfg.num_threads) {
  require(cfg_.tiles_x >= 1 && cfg_.tiles_y >= 1, "need at least one tile");
  require(cfg_.margin >= 0.0, "margin must be non-negative");
  require(!sensors.empty(), "regional grid needs sensors");

  const AreaBounds& bounds = env.bounds();
  const double tw = bounds.width() / static_cast<double>(cfg_.tiles_x);
  const double th = bounds.height() / static_cast<double>(cfg_.tiles_y);
  const std::size_t particles_per_tile = std::max<std::size_t>(
      cfg_.localizer.filter.num_particles / (cfg_.tiles_x * cfg_.tiles_y), 200);

  routes_.resize(sensors.size());
  Rng seeder(seed);

  for (std::size_t ty = 0; ty < cfg_.tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < cfg_.tiles_x; ++tx) {
      const AreaBounds core{
          {bounds.min.x + static_cast<double>(tx) * tw,
           bounds.min.y + static_cast<double>(ty) * th},
          {bounds.min.x + static_cast<double>(tx + 1) * tw,
           bounds.min.y + static_cast<double>(ty + 1) * th}};
      const AreaBounds expanded{
          bounds.clamp(core.min - Vec2{cfg_.margin, cfg_.margin}),
          bounds.clamp(core.max + Vec2{cfg_.margin, cfg_.margin})};

      auto tile = std::make_unique<Tile>(core, Environment(expanded, env.obstacles()));
      const auto tile_index = static_cast<std::uint32_t>(tiles_.size());

      // Sensors within the expanded rectangle report to this tile, with
      // dense local ids.
      for (const Sensor& s : sensors) {
        if (!expanded.contains(s.pos)) continue;
        const auto local_id = static_cast<SensorId>(tile->sensors.size());
        Sensor local = s;
        local.id = local_id;
        tile->sensors.push_back(local);
        tile->global_ids.push_back(s.id);
        routes_[s.id].emplace_back(tile_index, local_id);
      }

      if (!tile->sensors.empty()) {
        LocalizerConfig lcfg = cfg_.localizer;
        lcfg.filter.num_particles = particles_per_tile;
        lcfg.num_threads = 1;  // parallelism lives at the tile level
        tile->localizer = std::make_unique<MultiSourceLocalizer>(tile->env, tile->sensors,
                                                                 lcfg, seeder());
      }
      tiles_.push_back(std::move(tile));
    }
  }
}

void RegionalLocalizerGrid::process_time_step(std::span<const Measurement> batch) {
  for (auto& tile : tiles_) tile->inbox.clear();
  for (const Measurement& m : batch) {
    require(m.sensor < routes_.size(), "measurement from unknown sensor");
    for (const auto& [tile_index, local_id] : routes_[m.sensor]) {
      tiles_[tile_index]->inbox.push_back(Measurement{local_id, m.cpm});
    }
  }
  pool_.for_each_index(tiles_.size(), [&](std::size_t t) {
    Tile& tile = *tiles_[t];
    if (!tile.localizer) return;
    tile.localizer->process_all(tile.inbox);
  });
}

std::vector<SourceEstimate> RegionalLocalizerGrid::estimate() {
  std::vector<std::vector<SourceEstimate>> per_tile(tiles_.size());
  pool_.for_each_index(tiles_.size(), [&](std::size_t t) {
    if (tiles_[t]->localizer) per_tile[t] = tiles_[t]->localizer->estimate();
  });

  std::vector<AreaBounds> cores;
  cores.reserve(tiles_.size());
  for (const auto& tile : tiles_) cores.push_back(tile->core);
  return merge_tile_estimates(per_tile, cores, cfg_.localizer.meanshift.merge_radius);
}

std::vector<SourceEstimate> merge_tile_estimates(
    std::span<const std::vector<SourceEstimate>> per_tile, std::span<const AreaBounds> cores,
    double merge_radius) {
  require(per_tile.size() == cores.size(), "one core per tile");
  struct Owned {
    SourceEstimate estimate;
    std::size_t tile;
  };
  // Core ownership: a tile only reports sources inside its own core, and
  // points on shared edges belong to the lower-index tile (contains() is
  // boundary-inclusive).
  std::vector<Owned> owned;
  for (std::size_t t = 0; t < per_tile.size(); ++t) {
    for (const auto& e : per_tile[t]) {
      if (!cores[t].contains(e.pos)) continue;
      const auto earlier = cores.first(t);
      const bool edge_duplicate = std::any_of(
          earlier.begin(), earlier.end(), [&](const AreaBounds& c) { return c.contains(e.pos); });
      if (!edge_duplicate) owned.push_back({e, t});
    }
  }
  std::stable_sort(owned.begin(), owned.end(), [](const Owned& a, const Owned& b) {
    return a.estimate.support > b.estimate.support;
  });
  // Ownership alone reports a source twice when its modes fell on opposite
  // sides of a seam; the stronger one stands for both.
  const double merge2 = merge_radius * merge_radius;
  std::vector<SourceEstimate> merged;
  std::vector<std::size_t> merged_tile;
  for (const Owned& o : owned) {
    bool duplicate = false;
    for (std::size_t k = 0; k < merged.size() && !duplicate; ++k) {
      duplicate = merged_tile[k] != o.tile && distance2(merged[k].pos, o.estimate.pos) <= merge2;
    }
    if (duplicate) continue;
    merged.push_back(o.estimate);
    merged_tile.push_back(o.tile);
  }
  return merged;
}

}  // namespace radloc
