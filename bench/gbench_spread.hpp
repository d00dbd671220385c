// Repetitions for the google-benchmark binaries (bench_table1_runtime,
// bench_weight_update, bench_micro). Each passes google-benchmark
// --benchmark_repetitions=kRepetitions and random interleaving unless the
// caller set them (default_flag), so every row runs five times with host
// drift spread over all rows; it collects one value per repetition with
// RepetitionReporter and writes each row through JsonWriter::add_spread:
// the median as `value`, with `min`, `max` and `reps`.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace radloc::bench {

inline constexpr int kRepetitions = 5;

/// Appends `flag` ("--name=value") to google-benchmark's argv unless the
/// caller already gave --name (with a value or bare). `flag` must outlive
/// benchmark::Initialize.
inline void default_flag(std::vector<char*>& args, std::string& flag) {
  const std::size_t name_len = flag.find('=');
  for (std::size_t i = 1; i < args.size(); ++i) {
    // A prefix match guarantees args[i][name_len] exists (possibly '\0').
    if (std::strncmp(args[i], flag.c_str(), name_len) == 0 &&
        (args[i][name_len] == '=' || args[i][name_len] == '\0')) {
      return;
    }
  }
  args.push_back(flag.data());
}

/// Console reporter that keeps every repetition's value per benchmark name;
/// aggregate rows and runs without a value are skipped.
class RepetitionReporter : public benchmark::ConsoleReporter {
 public:
  using Value = std::optional<double> (*)(const Run&);
  explicit RepetitionReporter(Value value) : value_(value) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const std::optional<double> v = value_(run);
      if (!v) continue;
      samples[run.benchmark_name()].push_back(*v);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, std::vector<double>> samples;

 private:
  Value value_;
};

/// The named user counter of a run, if it has one.
inline std::optional<double> counter(const benchmark::BenchmarkReporter::Run& run,
                                     const char* name) {
  const auto it = run.counters.find(name);
  if (it == run.counters.end()) return std::nullopt;
  return static_cast<double>(it->second);
}

}  // namespace radloc::bench
