// Weight-update hot-path throughput (particles/sec) on Scenario A, NP 15000:
// the per-particle likelihood loop for {free space, obstacles} x
// {transmission cache off/on} (BM_WeightUpdate: the only measurement of
// exact versus cached obstacle scoring), and, per SIMD tier, one batched
// Poisson pass (BM_PoissonBatch) and the filter's batched scoring pipeline
// (BM_WeightUpdateBatched). Every row runs on one thread, as a reading does,
// and names its tier in its config.
//
// The measured kernels are the likelihood stage of
// FusionParticleFilter::process_reading: score every particle of a fusion-
// range subset against one measurement. Selection/resampling costs are
// excluded here (bench_table1_runtime measures the end-to-end iteration).
//
// Writes the stable-schema BENCH_weight_update.json (bench_util JsonWriter)
// plus the raw google-benchmark dump BENCH_weight_update.gbench.json
// (override with --benchmark_out=...), and prints a speedup summary so CI
// has a machine-readable perf trajectory. `--smoke` shortens the measured
// time per benchmark for the benchsmoke ctest entry.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "radloc/common/math.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/radiation/transmission_cache.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/simd/aligned.hpp"
#include "radloc/simd/simd.hpp"

namespace {

using namespace radloc;

constexpr std::size_t kParticles = 15000;
constexpr double kFusionRange = 28.0;

struct Cloud {
  Scenario scenario;
  std::vector<Point2> positions;
  std::vector<double> strengths;
  /// Per sensor: particle indices within the fusion range, and one sampled
  /// reading.
  std::vector<std::vector<std::uint32_t>> subsets;
  std::vector<double> readings;
};

Cloud make_cloud(bool obstacles) {
  Cloud c{make_scenario_a(10.0, 5.0, obstacles), {}, {}, {}, {}};
  Rng rng(97);
  c.positions.resize(kParticles);
  c.strengths.resize(kParticles);
  for (std::size_t i = 0; i < kParticles; ++i) {
    c.positions[i] = uniform_point(rng, c.scenario.env.bounds());
    c.strengths[i] = std::exp(uniform(rng, std::log(4.0), std::log(1000.0)));
  }
  MeasurementSimulator sim(c.scenario.env, c.scenario.sensors, c.scenario.sources);
  for (const Sensor& s : c.scenario.sensors) {
    std::vector<std::uint32_t> subset;
    for (std::size_t i = 0; i < kParticles; ++i) {
      if (distance(c.positions[i], s.pos) <= kFusionRange) {
        subset.push_back(static_cast<std::uint32_t>(i));
      }
    }
    c.subsets.push_back(std::move(subset));
    c.readings.push_back(sim.sample(rng, s.id).cpm);
  }
  return c;
}

/// The per-particle scoring loop, serial: hoisted PoissonLogPmf, AABB-swept
/// path_attenuation (cache off) or the per-sensor transmission cache's
/// bilinear lookup (cache on). These are the scalar expressions the filter's
/// exact-geometry path evaluates (its Poisson pass then goes through the
/// active tier's kernel), so the rows name the scalar tier.
void BM_WeightUpdate(benchmark::State& state, bool obstacles, bool cache_on) {
  const Cloud c = make_cloud(obstacles);

  TransmissionCache cache(c.scenario.env, 2.0);

  std::size_t sensor = 0;
  std::size_t scored = 0;
  std::vector<double> lls(kParticles);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const Sensor& s = c.scenario.sensors[sensor];
    const auto& subset = c.subsets[sensor];
    const TransmissionCache::Field* field =
        obstacles && cache_on ? cache.prepare(s.pos) : nullptr;
    const PoissonLogPmf log_pmf(c.readings[sensor]);
    for (std::size_t k = 0; k < subset.size(); ++k) {
      const auto i = subset[k];
      const Source hyp{c.positions[i], c.strengths[i]};
      double rate;
      if (!obstacles) {
        rate = expected_cpm_single_free_space(s.pos, hyp, s.response);
      } else if (field != nullptr) {
        rate = kMicroCurieToCpm * s.response.efficiency * free_space_intensity(s.pos, hyp) *
                   cache.transmission(*field, hyp.pos) +
               s.response.background_cpm;
      } else {
        rate = expected_cpm_single(s.pos, hyp, c.scenario.env, s.response);
      }
      lls[k] = log_pmf(rate);
    }
    benchmark::DoNotOptimize(lls.data());
    scored += subset.size();
    sensor = (sensor + 1) % c.scenario.sensors.size();
  }
  // Wall-clock rate, like every row here.
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["particles_per_sec"] =
      benchmark::Counter(secs > 0.0 ? static_cast<double>(scored) / secs : 0.0);
}

/// One batched Poisson log-PMF pass over a fusion-subset-sized rate array —
/// the kernel the simd tiers exist for. Swept per tier (RegisterBenchmark in
/// main) so BENCH_weight_update.json records the scalar-vs-vector trajectory.
void BM_PoissonBatch(benchmark::State& state, simd::Tier tier) {
  const Cloud c = make_cloud(false);
  const simd::Kernels& ker = simd::kernels_for(tier);
  const Sensor& s = c.scenario.sensors[0];
  const PoissonLogPmf log_pmf(c.readings[0]);

  // Realistic rate magnitudes: every particle scored against sensor 0.
  simd::AVector<double> rates(kParticles);
  simd::AVector<double> out(kParticles);
  for (std::size_t i = 0; i < kParticles; ++i) {
    rates[i] = expected_cpm_single_free_space(s.pos, Source{c.positions[i], c.strengths[i]},
                                              s.response);
  }

  std::size_t scored = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    ker.poisson_log_pmf(log_pmf.count(), log_pmf.log_k_factorial(), rates.data(), out.data(),
                        kParticles);
    benchmark::DoNotOptimize(out.data());
    scored += kParticles;
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["particles_per_sec"] =
      benchmark::Counter(secs > 0.0 ? static_cast<double>(scored) / secs : 0.0);
}

/// The filter's full batched scoring pipeline per tier: SoA gather, then
/// hypothesis rates (with gathered bilinear transmissions when obstacles are
/// cached), then the batch Poisson — exactly process_reading_impl's batched
/// path.
void BM_WeightUpdateBatched(benchmark::State& state, bool obstacles, simd::Tier tier) {
  const Cloud c = make_cloud(obstacles);
  const simd::Kernels& ker = simd::kernels_for(tier);
  TransmissionCache cache(c.scenario.env, 2.0);

  simd::AVector<double> gx(kParticles);
  simd::AVector<double> gy(kParticles);
  simd::AVector<double> gs(kParticles);
  simd::AVector<double> gt(kParticles);
  simd::AVector<double> lls(kParticles);

  std::size_t sensor = 0;
  std::size_t scored = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const Sensor& s = c.scenario.sensors[sensor];
    const auto& subset = c.subsets[sensor];
    const std::size_t n = subset.size();
    const PoissonLogPmf log_pmf(c.readings[sensor]);
    for (std::size_t k = 0; k < n; ++k) {
      const auto i = subset[k];
      gx[k] = c.positions[i].x;
      gy[k] = c.positions[i].y;
      gs[k] = c.strengths[i];
    }
    const double* trans = nullptr;
    if (obstacles) {
      const TransmissionCache::Field* field = cache.prepare(s.pos);
      ker.bilinear(cache.grid_view(*field), gx.data(), gy.data(), gt.data(), n);
      trans = gt.data();
    }
    ker.hypothesis_rates(s.pos.x, s.pos.y, kMicroCurieToCpm * s.response.efficiency,
                         s.response.background_cpm, gx.data(), gy.data(), gs.data(), trans,
                         lls.data(), n);
    ker.poisson_log_pmf(log_pmf.count(), log_pmf.log_k_factorial(), lls.data(), lls.data(), n);
    benchmark::DoNotOptimize(lls.data());
    scored += n;
    sensor = (sensor + 1) % c.scenario.sensors.size();
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["particles_per_sec"] =
      benchmark::Counter(secs > 0.0 ? static_cast<double>(scored) / secs : 0.0);
}

/// Console reporter that records particles_per_sec per benchmark so the main
/// can print the speedup summary after the run.
class SpeedupReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      const auto it = run.counters.find("particles_per_sec");
      if (it != run.counters.end()) rates[run.benchmark_name()] = it->second;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> rates;
};

void print_speedups(const std::map<std::string, double>& rates) {
  const auto rate = [&](const std::string& name) {
    const auto it = rates.find(name);
    return it != rates.end() ? it->second : 0.0;
  };
  const auto report = [&](const char* label, const std::string& num, const std::string& den) {
    const double a = rate(num);
    const double b = rate(den);
    if (a > 0.0 && b > 0.0) {
      std::printf("SPEEDUP %-44s %.2fx\n", label, a / b);
    }
  };
  std::printf("\n--- obstacle scoring, transmission cache on vs off ---\n");
  report("obstacles, cache on vs off", "BM_WeightUpdate/obstacles:1/cache:1/simd:scalar",
         "BM_WeightUpdate/obstacles:1/cache:0/simd:scalar");

  // Tier sweep (rows exist only for tiers the host ran — RADLOC_SIMD pins).
  std::printf("\n--- simd kernel tiers vs scalar tier ---\n");
  for (const char* tier : {"sse2", "avx2"}) {
    const std::string suffix = std::string("simd:") + tier;
    report((std::string("poisson batch, ") + tier + " vs scalar").c_str(),
           "BM_PoissonBatch/" + suffix, "BM_PoissonBatch/simd:scalar");
    report((std::string("batched scoring, free space, ") + tier + " vs scalar").c_str(),
           "BM_WeightUpdateBatched/obstacles:0/" + suffix,
           "BM_WeightUpdateBatched/obstacles:0/simd:scalar");
    report((std::string("batched scoring, cached obstacles, ") + tier + " vs scalar").c_str(),
           "BM_WeightUpdateBatched/obstacles:1/" + suffix,
           "BM_WeightUpdateBatched/obstacles:1/simd:scalar");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke is ours, everything else goes to google-benchmark.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      radloc::bench::detail::smoke_flag() = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_weight_update.gbench.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string min_time_flag = "--benchmark_min_time=0.01";
  bool has_out = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  if (radloc::bench::smoke()) args.push_back(min_time_flag.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;

  // Every row's name, and so its JSON `config`, ends in the tier it ran.
  for (const auto& [obstacles, cache_on] :
       {std::pair{false, false}, std::pair{true, false}, std::pair{true, true}}) {
    const std::string name = std::string("BM_WeightUpdate/obstacles:") + (obstacles ? "1" : "0") +
                             "/cache:" + (cache_on ? "1" : "0") + "/simd:scalar";
    benchmark::RegisterBenchmark(name.c_str(), [obstacles, cache_on](benchmark::State& s) {
      BM_WeightUpdate(s, obstacles, cache_on);
    });
  }
  // The simd tier sweep is a runtime property of the host (clamped to what
  // it supports; RADLOC_SIMD pins a single tier), so these are registered
  // dynamically too.
  for (const auto tier : radloc::simd::sweep_tiers()) {
    const std::string tn = radloc::simd::tier_name(tier);
    benchmark::RegisterBenchmark(("BM_PoissonBatch/simd:" + tn).c_str(),
                                 [tier](benchmark::State& s) { BM_PoissonBatch(s, tier); });
    benchmark::RegisterBenchmark(
        ("BM_WeightUpdateBatched/obstacles:0/simd:" + tn).c_str(),
        [tier](benchmark::State& s) { BM_WeightUpdateBatched(s, false, tier); });
    benchmark::RegisterBenchmark(
        ("BM_WeightUpdateBatched/obstacles:1/simd:" + tn).c_str(),
        [tier](benchmark::State& s) { BM_WeightUpdateBatched(s, true, tier); });
  }

  SpeedupReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  print_speedups(reporter.rates);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("weight_update");
  for (const auto& [name, rate] : reporter.rates) {
    json.add("weight-update-scenario-A", name, "particles_per_sec", rate, 1);
  }
  json.write();
  return 0;
}
