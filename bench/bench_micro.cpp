// Micro-benchmarks of the hot primitives (google-benchmark): spatial grid
// queries and re-filing, the local resample, chord-length ray casts, normal
// and Poisson sampling, the Poisson log-PMF, and one filter iteration. These are the kernels
// Table I's end-to-end time decomposes into; regressions here explain
// regressions there.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "radloc/common/math.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/intersect.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/geom/shapes.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"

namespace {

using namespace radloc;

void BM_GridIndexRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  GridIndex index(area, 14.0);
  for (auto _ : state) {
    index.rebuild(pts);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_GridIndexRebuild)->Arg(2000)->Arg(15000);

// What a filter reading pays to keep its particle index current: re-filing
// the clustered subset a local resample moved (the points nearest one
// center, redrawn as jittered copies of each other) in the filter's
// SlottedGridIndex. Iterations alternate between two point sets that differ
// only in that subset. Args: points, moved points.
void BM_SlottedGridIndexUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> before;
  for (std::size_t i = 0; i < n; ++i) before.push_back(uniform_point(rng, area));
  const Point2 center = uniform_point(rng, area);
  std::vector<std::uint32_t> moved(n);
  std::iota(moved.begin(), moved.end(), 0u);
  std::partial_sort(moved.begin(), moved.begin() + static_cast<std::ptrdiff_t>(k), moved.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return distance2(before[a], center) < distance2(before[b], center);
                    });
  moved.resize(k);
  std::vector<Point2> after = before;
  for (const auto i : moved) {
    const Point2 src = before[moved[uniform_index(rng, k)]];
    after[i] = area.clamp({src.x + normal(rng, 0.0, 1.0), src.y + normal(rng, 0.0, 1.0)});
  }
  const std::vector<Point2>* sides[] = {&after, &before};
  SlottedGridIndex index(area, 14.0);
  index.rebuild(before);
  std::size_t it = 0;
  for (auto _ : state) {
    index.update(*sides[it++ & 1], moved);
    benchmark::DoNotOptimize(index.size());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
  state.counters["relayouts"] = benchmark::Counter(static_cast<double>(index.relayouts()),
                                                   benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SlottedGridIndexUpdate)->Args({2000, 300})->Args({15000, 550});

// The fusion-disk query on the filter's index, for comparison with
// BM_GridIndexQuery (same points, pitch and radius).
void BM_SlottedGridIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  SlottedGridIndex index(area, 14.0);
  index.rebuild(pts);
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> cells;
  for (auto _ : state) {
    index.query_radius(pts, uniform_point(rng, area), 28.0, out, cells);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SlottedGridIndexQuery)->Arg(2000)->Arg(15000);

// The fusion filter's local resample of one reading's subset at Scenario-C
// scale: 15000 particles over 260 x 260 with index pitch 16, and a subset of
// the 550 particles nearest a source, weighted by closeness to it. Each
// iteration first re-weights the subset and looks up its cells (which the
// filter's scoring and query provide), so the cloud stays clustered.
void BM_ResampleSubset(benchmark::State& state) {
  constexpr std::size_t kParticles = 15000;
  constexpr std::size_t kSubset = 550;
  const AreaBounds area = make_area(260, 260);
  FilterConfig cfg;
  cfg.num_particles = kParticles;
  LocalResampler resampler(cfg, area);
  Rng rng(8);
  std::vector<Point2> positions(kParticles);
  std::vector<double> strengths(kParticles);
  std::vector<double> weights(kParticles, 1.0 / static_cast<double>(kParticles));
  for (std::size_t i = 0; i < kParticles; ++i) {
    positions[i] = resampler.random_position(rng);
    strengths[i] = resampler.random_strength(rng);
  }
  const Point2 source{130.0, 130.0};
  std::vector<std::uint32_t> subset(kParticles);
  std::iota(subset.begin(), subset.end(), 0u);
  std::partial_sort(subset.begin(), subset.begin() + kSubset, subset.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return distance2(positions[a], source) < distance2(positions[b], source);
                    });
  subset.resize(kSubset);
  const double mass = static_cast<double>(kSubset) / static_cast<double>(kParticles);
  SlottedGridIndex index(area, 16.0);
  index.rebuild(positions);
  std::vector<std::uint32_t> cells(kSubset);
  std::vector<double> posterior(kSubset);
  std::vector<std::uint32_t> moved;
  LocalResampler::Scratch scratch;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kSubset; ++k) {
      const Point2& p = positions[subset[k]];
      cells[k] = index.cell_id(p);
      posterior[k] = 1.0 / (1.0 + distance2(p, source));
    }
    resampler.resample(rng, subset, cells, posterior, mass,
                       ParticleSpans{positions, strengths, weights}, index, scratch, moved);
    index.update(positions, moved);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSubset));
  state.counters["relayouts"] = benchmark::Counter(static_cast<double>(index.relayouts()),
                                                   benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ResampleSubset)->Unit(benchmark::kMicrosecond);

void BM_GridIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  GridIndex index(area, 14.0);
  index.rebuild(pts);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    index.query_radius(pts, uniform_point(rng, area), 28.0, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(2000)->Arg(15000);

void BM_ChordLength(benchmark::State& state) {
  const Polygon u = make_u_shape(20, 20, 80, 70, 8.0);
  Rng rng(3);
  const AreaBounds area = make_area(100, 100);
  for (auto _ : state) {
    const Segment seg{uniform_point(rng, area), uniform_point(rng, area)};
    benchmark::DoNotOptimize(chord_length(seg, u));
  }
}
BENCHMARK(BM_ChordLength);

void BM_PoissonSample(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson(rng, lambda));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(5)->Arg(100)->Arg(10000);

void BM_Normal(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal(rng));
  }
}
BENCHMARK(BM_Normal);

void BM_PoissonLogPmf(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson_log_pmf(uniform(rng, 0, 100), uniform(rng, 1, 100)));
  }
}
BENCHMARK(BM_PoissonLogPmf);

void BM_FilterIteration(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  FilterConfig cfg;
  cfg.num_particles = particles;
  FusionParticleFilter filter(env, sensors, cfg, Rng(6));
  Rng rng(7);
  for (auto _ : state) {
    const auto sensor = static_cast<SensorId>(uniform_index(rng, sensors.size()));
    benchmark::DoNotOptimize(filter.process({sensor, std::floor(uniform(rng, 0, 40))}));
  }
}
BENCHMARK(BM_FilterIteration)->Arg(2000)->Arg(15000)->Unit(benchmark::kMicrosecond);

/// Console reporter that records per-iteration real time so the main can
/// emit the stable-schema BENCH_micro.json after the run.
class TimeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.iterations > 0) {
        seconds[run.benchmark_name()] =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> seconds;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      radloc::bench::detail::smoke_flag() = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time_flag = "--benchmark_min_time=0.01";
  if (radloc::bench::smoke()) args.push_back(min_time_flag.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  TimeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("micro");
  for (const auto& [name, secs] : reporter.seconds) {
    json.add("kernels", name, "seconds_per_op", secs);
  }
  json.write();
  return 0;
}
