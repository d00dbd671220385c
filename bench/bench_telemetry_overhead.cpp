// Telemetry overhead on a multi-session service workload (DESIGN.md §5.10).
//
// The observability layer promises that enabling it costs almost nothing:
// counters are relaxed sharded adds, gauges are relaxed stores, stage spans
// are sampled (default 1-in-16), and the disabled path is a pointer compare.
// This bench puts a number on that promise: a SessionManager
// ingest->drain->apply loop runs with observability off (null handles, the
// seed behavior), with the metrics registry alone, and with metrics plus
// stage tracing at the default sampling interval. Reported:
//
//   readings_per_sec   sustained throughput per config (best of reps)
//   overhead_pct       100 * (off - full) / off — the acceptance headline,
//                      required <= 5% in the committed baseline JSON
//
// The committed BENCH_telemetry_overhead.json records the full (non-smoke)
// run; tools/bench_compare.py tracks readings_per_sec across commits and
// reports overhead_pct informationally.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "radloc/obs/export.hpp"
#include "radloc/radloc.hpp"

namespace {

using namespace radloc;

enum class ObsMode { kOff, kMetrics, kFull };

double run_once(const Scenario& scenario, const std::vector<std::vector<Measurement>>& steps,
                std::size_t sessions, std::size_t threads, std::uint64_t seed, ObsMode mode) {
  SessionConfig cfg;
  cfg.localizer.filter.num_particles = 800;
  cfg.localizer.filter.fusion_range = scenario.recommended_fusion_range;
  cfg.queue_capacity = 1 << 12;

  ThreadPool pool(threads, threads);
  obs::MetricsRegistry registry;
  std::optional<obs::TraceSink> sink;
  ServiceObservability obs;
  if (mode != ObsMode::kOff) obs.metrics = &registry;
  if (mode == ObsMode::kFull) {
    sink.emplace();  // default capacity, default 1-in-16 sampling
    obs.trace = &*sink;
  }
  SessionManager mgr(pool, obs);
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t k = 0; k < sessions; ++k) {
    ids.push_back(mgr.open(scenario.env, scenario.sensors, cfg, seed ^ (k * 7919)));
  }

  std::size_t total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < steps.size(); ++t) {
    for (const auto id : ids) {
      for (const Measurement& m : steps[t]) {
        (void)mgr.ingest(id, SessionReading{static_cast<double>(t), m});
      }
    }
    total += mgr.drain_all();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(total) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const std::size_t threads = bench::threads();
  const std::size_t num_steps = bench::steps(30);
  const std::size_t reps = bench::trials(3);
  const std::size_t sessions = bench::smoke() ? 2 : 8;

  const Scenario scenario = make_scenario_a(10.0, 5.0, false);
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
  Rng noise(42);
  std::vector<std::vector<Measurement>> steps;
  for (std::size_t t = 0; t < num_steps; ++t) steps.push_back(sim.sample_time_step(noise));

  bench::JsonWriter json("telemetry_overhead");
  std::printf("%-12s %16s\n", "config", "readings/sec");

  // Configs are INTERLEAVED within each rep (off, metrics, full, off, ...)
  // rather than run in three sequential blocks: throughput on a shared CI
  // host drifts over the seconds the bench runs, and a blocked order
  // charges whatever the machine is doing last entirely to the last config.
  // Interleaving spreads the drift evenly; best-of-reps then compares each
  // config's least-disturbed run.
  const struct {
    const char* name;
    ObsMode mode;
  } configs[] = {
      {"obs:off", ObsMode::kOff},
      {"obs:metrics", ObsMode::kMetrics},
      {"obs:full", ObsMode::kFull},
  };
  double best[3] = {0.0, 0.0, 0.0};
  // Per-rep PAIRED overheads: within one rep the three configs run within
  // milliseconds of each other, so host drift mostly cancels; the median of
  // the per-rep ratios is robust to the outlier reps that dominate a
  // best-of or mean-of comparison on a shared machine.
  std::vector<double> overheads;
  for (std::size_t r = 0; r < reps; ++r) {
    double rep[3];
    for (std::size_t c = 0; c < 3; ++c) {
      rep[c] = run_once(scenario, steps, sessions, threads, 1 + r, configs[c].mode);
      best[c] = std::max(best[c], rep[c]);
    }
    if (rep[0] > 0.0) overheads.push_back(100.0 * (rep[0] - rep[2]) / rep[0]);
  }
  for (std::size_t c = 0; c < 3; ++c) {
    std::printf("%-12s %16.0f\n", configs[c].name, best[c]);
    json.add("A", configs[c].name, "readings_per_sec", best[c], threads);
  }

  std::sort(overheads.begin(), overheads.end());
  const double overhead_pct = overheads.empty() ? 0.0 : overheads[overheads.size() / 2];
  std::printf("%-12s %15.2f%%\n", "overhead", overhead_pct);
  json.add("A", "obs:full", "overhead_pct", overhead_pct, threads);
  json.write();
  return 0;
}
