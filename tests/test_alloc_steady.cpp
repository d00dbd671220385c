// Steady-state allocation regression test for the filter's per-reading path
// and the localizer's batch ingest above it (the path the service drains).
//
// Every container the hot path touches is a member or thread_local scratch
// buffer sized on first use: the spatial index's rebuild scratch, the fusion
// subset, the SoA gather slices, the resample picks and drawn-particle
// staging (src/radloc/filter/particle_filter.hpp). Once those have reached
// capacity, a reading must not allocate at all — this test counts EVERY
// global operator new (plain, array, aligned, nothrow) during readings
// processed after a warm-up pass and requires exactly zero.
//
// The scenario pins the subset size: the fusion range covers the whole
// area, so |P'| == num_particles for every reading and capacity demands
// are deterministic (a partial-coverage subset would make the high-water
// mark stochastic under resampling jitter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace {

std::atomic<long> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_alloc(std::size_t size) {
  note_alloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t size, std::align_val_t align) {
  note_alloc();
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, al, size != 0 ? size : al) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replacement allocation functions: counting wrappers over malloc. All forms
// are replaced as a set so new/delete stay paired (AlignedAllocator uses the
// align_val_t forms; the containers use the plain ones).
void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace radloc {
namespace {

long count_allocs_during_one_pass(FusionParticleFilter& filter,
                                  const std::vector<Measurement>& stream) {
  g_alloc_count.store(0);
  g_counting.store(true);
  for (const auto& m : stream) (void)filter.process(m);
  g_counting.store(false);
  return g_alloc_count.load();
}

void run_steady_state_scenario(bool cached_obstacles) {
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 1500;
  cfg.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  cfg.use_known_obstacles = cached_obstacles;
  cfg.use_transmission_cache = cached_obstacles;
  FusionParticleFilter filter(env, sensors, cfg, Rng(11));

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(12);
  std::vector<Measurement> stream;
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
  }

  // Warm-up: builds the transmission fields (when enabled) and grows every
  // scratch buffer to its steady-state capacity.
  for (const auto& m : stream) (void)filter.process(m);

  const long allocs = count_allocs_during_one_pass(filter, stream);
  EXPECT_EQ(allocs, 0) << "per-reading path allocated at steady state"
                       << " (cached_obstacles=" << cached_obstacles << ")";
}

TEST(SteadyStateAllocation, FreeSpaceReadingsAreAllocationFree) {
  run_steady_state_scenario(/*cached_obstacles=*/false);
}

TEST(SteadyStateAllocation, CachedObstacleReadingsAreAllocationFree) {
  run_steady_state_scenario(/*cached_obstacles=*/true);
}

TEST(SteadyStateAllocation, FusedReadingsAreAllocationFree) {
  // Fused groups ride the same scratch as single readings, and the ESS gate
  // mixes skipped and performed resamples, so once the warm-up pass has
  // grown every buffer neither path may allocate.
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 1500;
  cfg.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  cfg.ess_resample_threshold = 0.5;  // exercises both gate outcomes
  FusionParticleFilter filter(env, sensors, cfg, Rng(11));

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(12);
  // Runs of 3 same-sensor readings.
  std::vector<Measurement> stream;
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      for (int r = 0; r < 3; ++r) stream.push_back(m);
    }
  }
  const auto pass = [&] {
    for (std::size_t i = 0; i < stream.size(); i += 3) {
      (void)filter.process_fused(std::span{stream}.subspan(i, 3));
      (void)filter.process(stream[i]);
    }
  };
  pass();  // warm-up: every scratch at capacity

  g_alloc_count.store(0);
  g_counting.store(true);
  pass();
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << "fused reading path allocated at steady state";
  EXPECT_GT(filter.fused_groups(), 0u);
  EXPECT_GT(filter.resamples_skipped(), 0u) << "gate never skipped; one path is untested";
  EXPECT_GT(filter.resamples_performed(), 0u);
}

/// Feeds time steps through MultiSourceLocalizer::try_process_all, the call
/// SessionManager's drain makes, with the per-reading callback the drain
/// passes: odd sensors report once (the plain single-reading path), even
/// sensors three times in a row (one fused update). Mean-shift, the only
/// stage that uses the pool, is not part of it.
void run_localizer_batches(ThreadPool* shared_pool) {
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  LocalizerConfig cfg;
  cfg.filter.num_particles = 1500;
  cfg.filter.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  MultiSourceLocalizer loc(env, sensors, cfg, /*seed=*/11, shared_pool);

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(12);
  std::vector<std::vector<Measurement>> steps;
  for (int step = 0; step < 3; ++step) {
    std::vector<Measurement> batch;
    for (const auto& m : sim.sample_time_step(noise)) {
      for (int r = 0; r < (m.sensor % 2 == 0 ? 3 : 1); ++r) batch.push_back(m);
    }
    steps.push_back(std::move(batch));
  }
  std::size_t callbacks = 0;
  const std::function<void(std::size_t, ReadingFault)> on_reading =
      [&callbacks](std::size_t, ReadingFault) { ++callbacks; };
  const auto pass = [&] {
    for (const auto& batch : steps) (void)loc.try_process_all(batch, on_reading);
  };
  pass();  // warm-up: every scratch at capacity

  const std::uint64_t fused_before = loc.filter().fused_groups();
  const std::uint64_t iterations_before = loc.iterations();
  g_alloc_count.store(0);
  g_counting.store(true);
  pass();
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << "localizer batch ingest allocated at steady state";
  std::size_t readings = 0;
  for (const auto& batch : steps) readings += batch.size();
  EXPECT_EQ(loc.iterations() - iterations_before, readings);
  EXPECT_EQ(callbacks, 2 * readings);
  EXPECT_GT(loc.filter().fused_groups(), fused_before) << "no fused run was applied";
  EXPECT_LT(loc.filter().fused_readings(), loc.iterations()) << "no single reading was applied";
}

TEST(SteadyStateAllocation, LocalizerBatchesWithOwnPoolAreAllocationFree) {
  run_localizer_batches(nullptr);
}

TEST(SteadyStateAllocation, LocalizerBatchesWithBorrowedPoolAreAllocationFree) {
  ThreadPool pool(4, /*max_fanout=*/4);  // the service's shape: every thread may fan out
  run_localizer_batches(&pool);
}

TEST(SteadyStateAllocation, CounterSeesOrdinaryAllocations) {
  // Sanity check of the harness itself: a vector growing under counting
  // must register, or the zero assertions above would be vacuous.
  g_alloc_count.store(0);
  g_counting.store(true);
  std::vector<double>* v = new std::vector<double>(256);
  g_counting.store(false);
  delete v;
  EXPECT_GE(g_alloc_count.load(), 1);
}

}  // namespace
}  // namespace radloc
