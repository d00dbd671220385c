// Table I — average execution time of the algorithm per iteration, for
// NP in {2000, 5000, 15000} x N in {36, 196} x worker threads {1, 2, 4}.
//
// One "iteration" = processing one sensor measurement; mean-shift
// estimation runs once per time step (N iterations) and its cost is
// amortized over the step, matching the paper's measurement. The paper's
// absolute numbers came from 4-core/24-core Xeons; the shape to reproduce
// is (i) growth with NP, (ii) near-insensitivity to N, (iii) speedup with
// threads (on multi-core hosts). Times are wall clock (UseRealTime): the
// pool's workers run mean-shift off the benchmark thread, so CPU time of
// that thread alone would leave their work out. Every row's config ends in
// the SIMD tier it ran (`,simd:<tier>`).
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace {

using namespace radloc;

void BM_Iteration(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  const bool large = state.range(1) != 0;
  const auto threads = static_cast<std::size_t>(state.range(2));

  const Scenario scenario = large ? make_scenario_b() : make_scenario_a(10.0, 5.0, false);
  LocalizerConfig cfg;
  cfg.filter.num_particles = particles;
  cfg.filter.fusion_range = scenario.recommended_fusion_range;
  cfg.num_threads = threads;
  MultiSourceLocalizer loc(scenario.env, scenario.sensors, cfg, 11);
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
  Rng noise(12);

  // Warm up 3 time steps so particles reach their typical clustered state
  // (the paper notes early iterations are slower).
  for (int t = 0; t < 3; ++t) {
    loc.process_all(sim.sample_time_step(noise));
    (void)loc.estimate();
  }

  const auto n = static_cast<double>(scenario.sensors.size());
  for (auto _ : state) {
    const auto batch = sim.sample_time_step(noise);
    loc.process_all(batch);
    benchmark::DoNotOptimize(loc.estimate());
  }
  // Report per-iteration (per-measurement) wall time like the paper's
  // Table I; with UseRealTime the rate divides by real time.
  state.counters["sec_per_iteration"] =
      benchmark::Counter(n * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// Console reporter that records sec_per_iteration per benchmark so the main
/// can print the multi-thread speedups (the paper's Table I shape) after the
/// run.
class Table1Reporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      const auto it = run.counters.find("sec_per_iteration");
      if (it != run.counters.end()) seconds[run.benchmark_name()] = it->second;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> seconds;
};

void print_speedups(const std::map<std::string, double>& seconds) {
  const auto at = [&](int large, int threads) {
    const std::string name = "BM_Iteration/particles:15000/largeN:" + std::to_string(large) +
                             "/threads:" + std::to_string(threads) + "/real_time";
    const auto it = seconds.find(name);
    return it != seconds.end() ? it->second : 0.0;
  };
  std::printf("\n--- Table I thread scaling at NP=15000 (speedup vs 1 thread) ---\n");
  for (const int large : {0, 1}) {
    const double base = at(large, 1);
    if (base <= 0.0) continue;
    for (const int threads : {2, 4}) {
      const double t = at(large, threads);
      if (t > 0.0) {
        std::printf("SPEEDUP largeN:%d threads:%d %.2fx\n", large, threads, base / t);
      }
    }
  }
}

}  // namespace

BENCHMARK(BM_Iteration)
    ->ArgNames({"particles", "largeN", "threads"})
    ->Args({2000, 0, 1})
    ->Args({2000, 1, 1})
    ->Args({5000, 0, 1})
    ->Args({5000, 1, 1})
    ->Args({15000, 0, 1})
    ->Args({15000, 1, 1})
    ->Args({15000, 0, 2})
    ->Args({15000, 1, 2})
    ->Args({15000, 0, 4})
    ->Args({15000, 1, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // --smoke is ours, everything else goes to google-benchmark. Smoke keeps
  // only the NP=2000 rows and shortens the measured time — the full matrix
  // (NP=15000 on the 196-sensor layout, with 3 warm-up steps per entry)
  // takes minutes.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      radloc::bench::detail::smoke_flag() = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_table1.gbench.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string min_time_flag = "--benchmark_min_time=0.01";
  std::string filter_flag = "--benchmark_filter=particles:2000";
  bool has_out = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  if (radloc::bench::smoke()) {
    args.push_back(min_time_flag.data());
    args.push_back(filter_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  Table1Reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  print_speedups(reporter.seconds);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("table1");
  const std::string tier =
      std::string(",simd:") + radloc::simd::tier_name(radloc::simd::active_tier());
  for (const auto& [name, secs] : reporter.seconds) {
    std::size_t threads = 1;
    if (const auto pos = name.find("threads:"); pos != std::string::npos) {
      threads = static_cast<std::size_t>(std::strtoul(name.c_str() + pos + 8, nullptr, 10));
    }
    const bool large = name.find("largeN:1") != std::string::npos;
    json.add(large ? "scenario-B" : "scenario-A", name + tier, "sec_per_iteration", secs,
             threads);
  }
  json.write();
  return 0;
}
