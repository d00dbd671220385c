// Session-multiplex sustained throughput (DESIGN.md §5.8).
//
// Measures the SessionManager service layer end to end: S independent
// Scenario-A sessions share one pool; each time step every session ingests
// one full sensor sweep (36 readings) and drain_all() applies the backlog
// as batched pool work. Reported per session count:
//
//   readings_per_sec   sustained ingest->drain->apply throughput across all
//                      sessions (feeds pre-generated, simulator excluded)
//   p50/p99_latency_us per-reading drain latency (sliding-window percentile
//                      telemetry from SessionStats, worst session's p99)
//
// Thread scaling note: drains parallelize across sessions, so --threads N
// only helps with multiple sessions — and only on a host that actually has
// cores (host_hw_threads in the JSON records what this machine offered).
//
// The repeat-sensor section replays a trace where each sensor reports R
// consecutive readings per step (dwell/burst telemetry, R from
// --repeat-sensor, default 8) and compares baseline vs fused same-sensor
// updates — the workload that knob (filter/config.hpp, DESIGN.md §5.9) was
// built for.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "radloc/radloc.hpp"

namespace {

using namespace radloc;

struct RunStats {
  double readings_per_sec = 0.0;
  double p50_us = 0.0;  // median session
  double p99_us = 0.0;  // worst session
  double fused_batch_len = 0.0;  // mean over sessions
};

struct RunConfig {
  bool fused = false;
  double ess_threshold = 1.0;
};

RunStats run_once(const Scenario& scenario, const std::vector<std::vector<Measurement>>& steps,
                  std::size_t sessions, std::size_t threads, std::uint64_t seed,
                  const RunConfig& rc) {
  SessionConfig cfg;
  cfg.localizer.filter.num_particles = 800;
  cfg.localizer.filter.fusion_range = scenario.recommended_fusion_range;
  cfg.localizer.filter.ess_resample_threshold = rc.ess_threshold;
  cfg.localizer.filter.fused_batch_updates = rc.fused;
  cfg.queue_capacity = 1 << 12;

  ThreadPool pool(threads, threads);
  SessionManager mgr(pool);
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

  RunStats out;
  out.readings_per_sec = static_cast<double>(total) / elapsed;
  std::vector<double> p50s, p99s;
  for (const auto id : ids) {
    const SessionStats st = mgr.stats(id);
    p50s.push_back(st.p50_latency_us);
    p99s.push_back(st.p99_latency_us);
    out.fused_batch_len += st.fused_batch_len;
  }
  std::sort(p50s.begin(), p50s.end());
  out.p50_us = p50s[p50s.size() / 2];
  out.p99_us = *std::max_element(p99s.begin(), p99s.end());
  out.fused_batch_len /= static_cast<double>(ids.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --repeat-sensor is this bench's own flag; bench::init rejects unknown
  // arguments, so strip it from argv before handing the rest over.
  std::size_t repeat = 8;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat-sensor") == 0 && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) repeat = static_cast<std::size_t>(parsed);
    } else {
      args.push_back(argv[i]);
    }
  }
  bench::init(static_cast<int>(args.size()), args.data());
  const std::size_t threads = bench::threads();
  const std::size_t num_steps = bench::steps(30);
  const std::size_t reps = bench::trials(3);

  const Scenario scenario = make_scenario_a(10.0, 5.0, false);

  // Pre-generate one shared feed: the bench times the service, not the
  // simulator. Every session replays the same sweep sequence.
  MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
  Rng noise(42);
  std::vector<std::vector<Measurement>> steps;
  for (std::size_t t = 0; t < num_steps; ++t) steps.push_back(sim.sample_time_step(noise));

  std::vector<std::size_t> session_counts =
      bench::smoke() ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 8, 32};

  bench::JsonWriter json("session_multiplex");
  std::printf("%-10s %-14s %16s %10s %10s %6s\n", "sessions", "config", "readings/sec",
              "p50_us", "p99_us", "fuse");
  const auto report = [&](std::size_t sessions, const char* label, const std::string& config,
                          const std::vector<std::vector<Measurement>>& feed, const RunConfig& rc) {
    RunStats best;
    for (std::size_t r = 0; r < reps; ++r) {
      const RunStats s = run_once(scenario, feed, sessions, threads, 1 + r, rc);
      if (s.readings_per_sec > best.readings_per_sec) best = s;
    }
    std::printf("%-10zu %-14s %16.0f %10.2f %10.2f %6.2f\n", sessions, label,
                best.readings_per_sec, best.p50_us, best.p99_us, best.fused_batch_len);
    json.add("A", config, "readings_per_sec", best.readings_per_sec, threads);
    json.add("A", config, "p50_latency_us", best.p50_us, threads);
    json.add("A", config, "p99_latency_us", best.p99_us, threads);
    if (rc.fused) json.add("A", config, "fused_batch_len", best.fused_batch_len, threads);
  };

  for (const std::size_t sessions : session_counts) {
    report(sessions, "fixed", "sessions:" + std::to_string(sessions), steps, RunConfig{});
  }

  // Repeat-sensor trace replay: each step every sensor reports `repeat`
  // consecutive readings (drawn from independent sweeps, so the counts stay
  // honest Poisson draws). Both rows share the ESS-gated resample threshold
  // so the speedup isolates the fusing, not the gate itself.
  std::vector<std::vector<Measurement>> repeat_steps;
  for (std::size_t t = 0; t < num_steps; ++t) {
    std::vector<std::vector<Measurement>> sweeps;
    for (std::size_t r = 0; r < repeat; ++r) sweeps.push_back(sim.sample_time_step(noise));
    std::vector<Measurement> step;
    step.reserve(repeat * sweeps.front().size());
    for (std::size_t s = 0; s < sweeps.front().size(); ++s) {
      for (std::size_t r = 0; r < repeat; ++r) step.push_back(sweeps[r][s]);
    }
    repeat_steps.push_back(std::move(step));
  }
  const std::vector<std::size_t> repeat_sessions =
      bench::smoke() ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 8};
  for (const std::size_t sessions : repeat_sessions) {
    const std::string base = "repeat:" + std::to_string(repeat) + "|sessions:" +
                             std::to_string(sessions);
    RunConfig off;
    off.ess_threshold = 0.5;
    report(sessions, "repeat", base, repeat_steps, off);
    RunConfig fused = off;
    fused.fused = true;
    report(sessions, "repeat|fused", base + "|fused", repeat_steps, fused);
  }
  json.write();
  return 0;
}
