// Shared helpers for the figure/table reproduction binaries.
//
// Every bench runs argument-free by default. Two flags are recognized by
// bench::init (unknown arguments are rejected so typos fail loudly):
//
//   --smoke       reduced trials/steps/worlds — a seconds-long run that
//                 exercises the full code path (the `benchsmoke` ctest
//                 label runs every bench this way)
//   --threads N   trial-level worker threads where the bench supports them
//
// Environment equivalents: RADLOC_SMOKE=1, RADLOC_THREADS=N. Trial counts
// default to values sized for a small CI machine; set RADLOC_TRIALS (and
// RADLOC_WORLDS for the robustness sweep) to grow them toward the paper's
// averaging (10 trials).
//
// Results: every bench that prints results also records its headline
// numbers through JsonWriter, which emits BENCH_<name>.json in the working
// directory with one stable schema across benches:
//
//   { "bench": "<name>", "host_hw_threads": H, "host_simd": "<tier>",
//     "smoke": false,
//     "results": [ { "scenario": "...", "config": "...", "metric": "...",
//                    "threads": T, "value": V }, ... ] }
//
// so the perf/accuracy trajectory can be diffed across commits. A row of
// repeated timings (add_spread) holds their median as "value" and adds
// "min", "max" and "reps".
// `host_simd` is the best kernel tier the host supports (simd/simd.hpp) —
// benches that sweep tiers additionally tag each row's `config` string with
// `simd:<tier>`, so numbers from different machines compare honestly.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "radloc/simd/simd.hpp"

namespace radloc::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

namespace detail {
inline bool& smoke_flag() {
  static bool flag = std::getenv("RADLOC_SMOKE") != nullptr;
  return flag;
}
inline std::size_t& threads_value() {
  static std::size_t value = env_size("RADLOC_THREADS", 1);
  return value;
}
}  // namespace detail

/// Parses --smoke / --threads N. Call first in main(); exits with a usage
/// message on anything unrecognized.
inline void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      detail::smoke_flag() = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) detail::threads_value() = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--threads N]\n", argv[0]);
      std::exit(2);
    }
  }
}

[[nodiscard]] inline bool smoke() { return detail::smoke_flag(); }

/// Trial-level worker threads (--threads / RADLOC_THREADS; default 1).
inline std::size_t threads(std::size_t fallback = 1) {
  return detail::threads_value() > 1 ? detail::threads_value() : fallback;
}

inline std::size_t trials(std::size_t fallback = 5) {
  if (smoke()) return 1;
  return env_size("RADLOC_TRIALS", fallback);
}

/// Time steps: the bench's own value, cut short in smoke mode.
inline std::size_t steps(std::size_t fallback) {
  if (smoke()) return fallback < 4 ? fallback : 4;
  return fallback;
}

/// Random worlds for sweep benches (RADLOC_WORLDS; reduced in smoke mode).
inline std::size_t worlds(std::size_t fallback) {
  if (smoke()) return 2;
  return env_size("RADLOC_WORLDS", fallback);
}

/// The N of a "threads:N" field in a benchmark name, or 1 without one.
inline std::size_t threads_in(const std::string& name) {
  const auto pos = name.find("threads:");
  if (pos == std::string::npos) return 1;
  return static_cast<std::size_t>(std::strtoul(name.c_str() + pos + 8, nullptr, 10));
}

/// The median of `samples` (the mean of the middle two for an even count);
/// `samples` must not be empty.
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Collects {scenario, config, metric, threads, value} rows and writes
/// BENCH_<name>.json (working directory) when write() is called — or at
/// destruction as a backstop. NaN/inf serialize as null (JSON has no
/// non-finite literals).
class JsonWriter {
 public:
  explicit JsonWriter(std::string name) : name_(std::move(name)) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() {
    if (!written_) write();
  }

  void add(const std::string& scenario, const std::string& config, const std::string& metric,
           double value, std::size_t threads = 1) {
    rows_.push_back(Row{scenario, config, metric, threads, value});
  }

  /// One row for repeated measurements of the same thing: their median
  /// with the smallest and largest. `samples` must not be empty.
  void add_spread(const std::string& scenario, const std::string& config,
                  const std::string& metric, const std::vector<double>& samples,
                  std::size_t threads = 1) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    rows_.push_back(
        Row{scenario, config, metric, threads, median(samples), samples.size(), *lo, *hi});
  }

  void write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"host_hw_threads\": %u,\n", name_.c_str(), hw);
    std::fprintf(f, "  \"host_simd\": \"%s\",\n  \"smoke\": %s,\n",
                 simd::tier_name(simd::detected_tier()), smoke() ? "true" : "false");
    std::fprintf(f, "  \"results\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "%s\n    {\"scenario\": \"%s\", \"config\": \"%s\", \"metric\": \"%s\", ",
                   i == 0 ? "" : ",", escape(r.scenario).c_str(), escape(r.config).c_str(),
                   escape(r.metric).c_str());
      std::fprintf(f, "\"threads\": %zu, \"value\": %s", r.threads, number(r.value).c_str());
      if (r.reps > 0) {
        std::fprintf(f, ", \"min\": %s, \"max\": %s, \"reps\": %zu", number(r.min).c_str(),
                     number(r.max).c_str(), r.reps);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu results)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string scenario, config, metric;
    std::size_t threads;
    double value;
    std::size_t reps = 0;  ///< > 0: value is the median of reps samples
    double min = 0.0;
    double max = 0.0;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string number(double v) {
    if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
  }

  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace radloc::bench
