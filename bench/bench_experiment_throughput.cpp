// Trial-level experiment throughput (DESIGN.md §5.6).
//
// Runs the Fig. 5 three-source scenario with Scenario A's U-shaped obstacle,
// scored by exact known-obstacle geometry, through run_experiment under
// increasing trial parallelism and records trials/sec:
//
//   serial     one trial after another
//   N threads  N-way trial parallelism on one pool
//
// Every configuration runs five times, the configurations interleaved
// round by round so host drift spreads over all of them, and
// BENCH_experiment_throughput.json records each one's median trials/sec
// with its min and max. Every parallel run is checked bitwise against the
// first serial result (the determinism contract) and the comparison is
// recorded alongside. Every row's config ends in the SIMD tier it ran
// (`,simd:<tier>`). Speedups are measured on THIS host — host_hw_threads in
// the JSON says how many cores were actually available to the thread
// scaling.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "radloc/eval/experiment.hpp"

namespace {

using namespace radloc;

double run_once(const Scenario& scenario, const ExperimentOptions& opts, ExperimentResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentResult result = run_experiment(scenario, opts);
  const auto t1 = std::chrono::steady_clock::now();
  if (out != nullptr) *out = std::move(result);
  return std::chrono::duration<double>(t1 - t0).count();
}

// Bitwise equality over every deterministic ExperimentResult field
// (seconds_per_iteration is wall clock and excluded by contract).
bool identical(const ExperimentResult& a, const ExperimentResult& b) {
  auto same = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  if (a.error.size() != b.error.size()) return false;
  for (std::size_t t = 0; t < a.error.size(); ++t) {
    for (std::size_t j = 0; j < a.error[t].size(); ++j) {
      if (!same(a.error[t][j], b.error[t][j])) return false;
      if (a.matched_frac[t][j] != b.matched_frac[t][j]) return false;
    }
    if (a.false_positives[t] != b.false_positives[t]) return false;
    if (a.false_negatives[t] != b.false_negatives[t]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::JsonWriter json("experiment_throughput");

  const Scenario scenario = make_scenario_a3(10.0, 5.0, /*with_obstacle=*/true);

  ExperimentOptions opts;
  opts.trials = bench::smoke() ? 2 : bench::env_size("RADLOC_TRIALS", 8);
  opts.time_steps = bench::steps(30);
  opts.seed = 7;
  opts.localizer.filter.use_known_obstacles = true;

  const auto trials = static_cast<double>(opts.trials);
  const std::string tier = std::string(",simd:") + simd::tier_name(simd::active_tier());
  std::printf("experiment throughput — scenario A3+obstacle, %zu trials x %zu steps\n",
              opts.trials, opts.time_steps);

  constexpr int kRepetitions = 5;
  std::vector<std::size_t> thread_counts{1};
  for (const std::size_t n : std::vector<std::size_t>{2, 4, 8}) {
    if (n <= opts.trials) thread_counts.push_back(n);
  }
  std::vector<std::vector<double>> rates(thread_counts.size());
  std::vector<bool> match(thread_counts.size(), true);
  ExperimentResult serial_ref;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t c = 0; c < thread_counts.size(); ++c) {
      opts.num_threads = thread_counts[c];
      ExperimentResult result;
      const double s = run_once(scenario, opts, &result);
      rates[c].push_back(trials / s);
      if (rep == 0 && c == 0) {
        serial_ref = std::move(result);
      } else if (!identical(serial_ref, result)) {
        match[c] = false;
      }
    }
  }

  const double serial_rate = bench::median(rates[0]);
  for (std::size_t c = 0; c < thread_counts.size(); ++c) {
    const std::size_t n = thread_counts[c];
    const double rate = bench::median(rates[c]);
    const auto [lo, hi] = std::minmax_element(rates[c].begin(), rates[c].end());
    const std::string label = n == 1 ? "serial" : std::to_string(n) + " threads";
    std::printf("  %-12s median %6.3f trials/s  [%6.3f, %6.3f]", label.c_str(), rate, *lo, *hi);
    if (n > 1) {
      std::printf("  %5.2fx  bit-identical=%s", rate / serial_rate, match[c] ? "yes" : "NO");
    }
    std::printf("\n");
    const std::string config = (n == 1 ? "serial" : "parallel") + tier;
    json.add_spread("A3+obstacle", config, "trials_per_sec", rates[c], n);
    if (n > 1) json.add("A3+obstacle", config, "bitwise_match_serial", match[c] ? 1.0 : 0.0, n);
  }

  json.write();
  return 0;
}
