// Micro-benchmarks of the hot primitives (google-benchmark): spatial grid
// sorts, queries and re-filing, the local resample, chord-length ray casts,
// normal and Poisson sampling, the Poisson log-PMF, one filter iteration,
// one mean-shift sweep, and one localizer estimate that its memo cannot
// answer. These are the kernels Table I's end-to-end time decomposes into;
// regressions here explain regressions there. Every row runs five
// repetitions, randomly interleaved with the other rows'
// (gbench_spread.hpp), and BENCH_micro.json records each row's median
// seconds per op as `value` with `min`, `max` and `reps`. Every row names
// the SIMD tier it ran at; the mean-shift and estimate rows also name
// their pool's thread count (`threads:<n>`).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gbench_spread.hpp"
#include "radloc/common/math.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/intersect.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/geom/shapes.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/simd/simd.hpp"

namespace {

using namespace radloc;

// The counting sort mean-shift pays once per estimate.
void BM_GridIndexSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  const GridIndex index(area, 14.0);
  GridIndex::Layout layout;
  for (auto _ : state) {
    index.sort(pts, layout);
    benchmark::DoNotOptimize(layout.order.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_GridIndexSort)->Arg(2000)->Arg(15000);

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

// A radius query on a cell-ordered layout: the row walk, filtered to the
// radius.
void BM_GridIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  const GridIndex index(area, 14.0);
  GridIndex::Layout layout;
  index.sort(pts, layout);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    const Point2 c = uniform_point(rng, area);
    out.clear();
    index.for_each_row_span(layout, c, 28.0, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t i = layout.order[k];
        if (distance2(pts[i], c) <= 28.0 * 28.0) out.push_back(i);
      }
    });
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(2000)->Arg(15000);

/// A localizer fed `steps` in-order time steps of its scenario: Scenario A
/// at NP 2000, Scenario C (Poisson layout, obstacles) at NP 15000.
struct ConvergedLocalizer {
  Scenario sc;
  MultiSourceLocalizer loc;

  static Scenario scenario_for(std::size_t particles) {
    return particles <= 2000 ? make_scenario_a(10.0) : make_scenario_c();
  }
  static LocalizerConfig config_for(const Scenario& sc, std::size_t particles,
                                    std::size_t threads) {
    LocalizerConfig cfg;
    cfg.filter.num_particles = particles;
    cfg.filter.fusion_range = sc.recommended_fusion_range;
    cfg.num_threads = threads;
    return cfg;
  }

  /// `threads` sizes the localizer's own pool, which serves mean-shift only:
  /// the readings, and so the cloud, are the same at any thread count.
  ConvergedLocalizer(std::size_t particles, int steps, std::size_t threads = 1)
      : sc(scenario_for(particles)),
        loc(sc.env, sc.sensors, config_for(sc, particles, threads), 11) {
    MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
    Rng noise(12);
    for (int t = 0; t < steps; ++t) loc.process_all(sim.sample_time_step(noise));
  }
};

// One mean-shift sweep (seeding, ascents, merge, support) over a converged
// filter cloud, on a pool of 1 or 3 threads (bench/e2e's pool size). Wall
// time, so the workers' ascents count.
void BM_MeanShift(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  const ConvergedLocalizer run(particles, 8);
  const FusionParticleFilter& filter = run.loc.filter();
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  MeanShiftEstimator estimator(run.sc.env.bounds(), MeanShiftConfig{}, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.estimate(filter.positions(), filter.strengths(), filter.weights()));
  }
}
BENCHMARK(BM_MeanShift)
    ->ArgNames({"particles", "threads"})
    ->ArgsProduct({{2000, 15000}, {1, 3}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// MultiSourceLocalizer::estimate() when its memo cannot answer: each
// iteration first applies a reading whose fusion disk is empty (far outside
// the area), which advances the iteration and changes nothing else, so
// estimate() runs mean-shift and detection gating in full, on a localizer
// pool of 1 or 3 threads.
void BM_EstimateMiss(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  ConvergedLocalizer run(particles, 8, static_cast<std::size_t>(state.range(1)));
  const Point2 far{run.sc.env.bounds().min.x - 1e4, run.sc.env.bounds().min.y - 1e4};
  const SensorResponse response = run.sc.sensors.front().response;
  for (auto _ : state) {
    (void)run.loc.filter().process_reading(far, response, 5.0);
    benchmark::DoNotOptimize(run.loc.estimate());
  }
}
BENCHMARK(BM_EstimateMiss)
    ->ArgNames({"particles", "threads"})
    ->ArgsProduct({{2000, 15000}, {1, 3}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

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
  std::string reps_flag =
      "--benchmark_repetitions=" + std::to_string(radloc::bench::kRepetitions);
  std::string interleave_flag = "--benchmark_enable_random_interleaving=true";
  std::string min_time_flag = "--benchmark_min_time=0.01";
  radloc::bench::default_flag(args, reps_flag);
  radloc::bench::default_flag(args, interleave_flag);
  if (radloc::bench::smoke()) args.push_back(min_time_flag.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  // Wall time per iteration of each repetition.
  radloc::bench::RepetitionReporter reporter(
      [](const benchmark::BenchmarkReporter::Run& run) -> std::optional<double> {
        if (run.iterations <= 0) return std::nullopt;
        return run.real_accumulated_time / static_cast<double>(run.iterations);
      });
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("micro");
  const std::string tier = std::string(",simd:") + simd::tier_name(simd::active_tier());
  for (const auto& [name, secs] : reporter.samples) {
    json.add_spread("kernels", name + tier, "seconds_per_op", secs,
                    radloc::bench::threads_in(name));
  }
  json.write();
  return 0;
}
