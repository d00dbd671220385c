// Weight-update hot-path throughput (particles/sec) on Scenario A, NP 15000:
// the per-particle likelihood loop in free space and with exact known
// obstacles (BM_WeightUpdate), and, per SIMD tier, one batched Poisson pass
// (BM_PoissonBatch) and the filter's batched free-space scoring pipeline
// (BM_WeightUpdateBatched). Every row runs on one thread, as a reading does,
// and names its tier in its config.
//
// The measured kernels are the likelihood stage of
// FusionParticleFilter::process_reading: score every particle of a fusion-
// range subset against one measurement. Selection/resampling costs are
// excluded here (bench_table1_runtime measures the end-to-end iteration).
//
// Every row runs five repetitions, randomly interleaved with the other
// rows' (gbench_spread.hpp). Writes the stable-schema
// BENCH_weight_update.json (each row's median particles/sec as `value`,
// with `min`, `max` and `reps`) plus the raw google-benchmark dump
// BENCH_weight_update.gbench.json (override with --benchmark_out=...), and
// prints a speedup summary of the medians. `--smoke` shortens the measured
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
#include "gbench_spread.hpp"
#include "radloc/common/math.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/radiation/intensity_model.hpp"
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

/// The per-particle scoring loop, serial: hoisted PoissonLogPmf, and the
/// free-space rate or the exact Eq. (3) rate through AABB-swept
/// path_attenuation. These are the scalar expressions the filter's
/// known-obstacle path evaluates (its Poisson pass then goes through the
/// active tier's kernel), so the rows name the scalar tier.
void BM_WeightUpdate(benchmark::State& state, bool obstacles) {
  const Cloud c = make_cloud(obstacles);

  std::size_t sensor = 0;
  std::size_t scored = 0;
  std::vector<double> lls(kParticles);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const Sensor& s = c.scenario.sensors[sensor];
    const auto& subset = c.subsets[sensor];
    const PoissonLogPmf log_pmf(c.readings[sensor]);
    for (std::size_t k = 0; k < subset.size(); ++k) {
      const auto i = subset[k];
      const Source hyp{c.positions[i], c.strengths[i]};
      const double rate = obstacles
                              ? expected_cpm_single(s.pos, hyp, c.scenario.env, s.response)
                              : expected_cpm_single_free_space(s.pos, hyp, s.response);
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
    ker.poisson_log_pmf_fused(log_pmf.count(), 1.0, log_pmf.log_k_factorial(), rates.data(),
                              out.data(), kParticles);
    benchmark::DoNotOptimize(out.data());
    scored += kParticles;
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["particles_per_sec"] =
      benchmark::Counter(secs > 0.0 ? static_cast<double>(scored) / secs : 0.0);
}

/// The filter's full batched free-space scoring pipeline per tier: SoA
/// gather, then hypothesis rates, then the batch Poisson — exactly the
/// filter's free-space path for one reading.
void BM_WeightUpdateBatched(benchmark::State& state, simd::Tier tier) {
  const Cloud c = make_cloud(false);
  const simd::Kernels& ker = simd::kernels_for(tier);

  simd::AVector<double> gx(kParticles);
  simd::AVector<double> gy(kParticles);
  simd::AVector<double> gs(kParticles);
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
    ker.hypothesis_rates(s.pos.x, s.pos.y, kMicroCurieToCpm * s.response.efficiency,
                         s.response.background_cpm, gx.data(), gy.data(), gs.data(), lls.data(),
                         n);
    ker.poisson_log_pmf_fused(log_pmf.count(), 1.0, log_pmf.log_k_factorial(), lls.data(),
                              lls.data(), n);
    benchmark::DoNotOptimize(lls.data());
    scored += n;
    sensor = (sensor + 1) % c.scenario.sensors.size();
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  state.counters["particles_per_sec"] =
      benchmark::Counter(secs > 0.0 ? static_cast<double>(scored) / secs : 0.0);
}

void print_speedups(const std::map<std::string, std::vector<double>>& samples) {
  const auto rate = [&](const std::string& name) {
    const auto it = samples.find(name);
    return it != samples.end() ? bench::median(it->second) : 0.0;
  };
  const auto report = [&](const char* label, const std::string& num, const std::string& den) {
    const double a = rate(num);
    const double b = rate(den);
    if (a > 0.0 && b > 0.0) {
      std::printf("SPEEDUP %-44s %.2fx\n", label, a / b);
    }
  };
  // Tier sweep (rows exist only for tiers the host ran — RADLOC_SIMD pins).
  std::printf("\n--- simd kernel tiers vs scalar tier ---\n");
  for (const char* tier : {"sse2", "avx2"}) {
    const std::string suffix = std::string("simd:") + tier;
    report((std::string("poisson batch, ") + tier + " vs scalar").c_str(),
           "BM_PoissonBatch/" + suffix, "BM_PoissonBatch/simd:scalar");
    report((std::string("batched scoring, free space, ") + tier + " vs scalar").c_str(),
           "BM_WeightUpdateBatched/obstacles:0/" + suffix,
           "BM_WeightUpdateBatched/obstacles:0/simd:scalar");
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
  std::string reps_flag =
      "--benchmark_repetitions=" + std::to_string(radloc::bench::kRepetitions);
  std::string interleave_flag = "--benchmark_enable_random_interleaving=true";
  std::string min_time_flag = "--benchmark_min_time=0.01";
  radloc::bench::default_flag(args, out_flag);
  radloc::bench::default_flag(args, fmt_flag);
  radloc::bench::default_flag(args, reps_flag);
  radloc::bench::default_flag(args, interleave_flag);
  if (radloc::bench::smoke()) args.push_back(min_time_flag.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;

  // Every row's name, and so its JSON `config`, ends in the tier it ran.
  for (const bool obstacles : {false, true}) {
    const std::string name =
        std::string("BM_WeightUpdate/obstacles:") + (obstacles ? "1" : "0") + "/simd:scalar";
    benchmark::RegisterBenchmark(
        name.c_str(), [obstacles](benchmark::State& s) { BM_WeightUpdate(s, obstacles); });
  }
  // The simd tier sweep is a runtime property of the host (clamped to what
  // it supports; RADLOC_SIMD pins a single tier), so these are registered
  // dynamically too.
  for (const auto tier : radloc::simd::sweep_tiers()) {
    const std::string tn = radloc::simd::tier_name(tier);
    benchmark::RegisterBenchmark(("BM_PoissonBatch/simd:" + tn).c_str(),
                                 [tier](benchmark::State& s) { BM_PoissonBatch(s, tier); });
    benchmark::RegisterBenchmark(("BM_WeightUpdateBatched/obstacles:0/simd:" + tn).c_str(),
                                 [tier](benchmark::State& s) { BM_WeightUpdateBatched(s, tier); });
  }

  radloc::bench::RepetitionReporter reporter(
      [](const benchmark::BenchmarkReporter::Run& run) {
        return radloc::bench::counter(run, "particles_per_sec");
      });
  benchmark::RunSpecifiedBenchmarks(&reporter);
  print_speedups(reporter.samples);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("weight_update");
  for (const auto& [name, rates] : reporter.samples) {
    json.add_spread("weight-update-scenario-A", name, "particles_per_sec", rates, 1);
  }
  json.write();
  return 0;
}
