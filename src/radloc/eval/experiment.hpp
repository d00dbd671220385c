// Multi-trial experiment runner reproducing the paper's protocol (Sec. VI):
// 30 time steps, one measurement per sensor per step, metrics averaged over
// repeated trials with independent noise.
#pragma once

#include <cstdint>
#include <vector>

#include "radloc/core/localizer.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/scenarios.hpp"

namespace radloc {

enum class DeliveryKind { kInOrder, kShuffled, kRandomLatency };

struct ExperimentOptions {
  std::size_t time_steps = 30;
  std::size_t trials = 10;
  std::uint64_t seed = 1;
  double match_gate = kDefaultMatchGate;
  /// kInOrder unless the scenario flags out-of-order delivery; explicit
  /// override via `delivery_override`.
  std::optional<DeliveryKind> delivery_override;
  double mean_latency_steps = 1.0;  ///< for kRandomLatency
  double loss_rate = 0.0;           ///< fraction of measurements dropped
  /// Localizer configuration; num_particles / fusion_range are taken from
  /// the scenario's recommendation unless `use_scenario_defaults` is false.
  LocalizerConfig localizer;
  bool use_scenario_defaults = true;
  /// Worker threads for TRIAL-level parallelism: independent trials run
  /// concurrently on one shared pool (inner mean-shift parallelism from
  /// inside a trial runs inline — DESIGN.md §5.6). 1 (or 0) keeps the
  /// seed's serial loop, in which case localizer.num_threads still governs
  /// inner parallelism. Per-trial RNG streams are pre-split
  /// serially and aggregation runs in trial-index order, so every
  /// ExperimentResult field except the wall-clock seconds_per_iteration is
  /// bit-identical at any thread count (pinned by test).
  std::size_t num_threads = 1;
};

struct ExperimentResult {
  /// error[t][j]: mean localization error of source j at time step t over
  /// the trials in which it was matched; NaN if never matched at step t.
  std::vector<std::vector<double>> error;
  /// Mean false positives / negatives per time step (over trials).
  std::vector<double> false_positives;
  std::vector<double> false_negatives;
  /// Mean fraction of trials in which source j was matched at step t.
  std::vector<std::vector<double>> matched_frac;
  /// Mean wall-clock seconds per filter iteration (measurement), per trial.
  double seconds_per_iteration = 0.0;

  /// Mean error of source j averaged over steps [from, to) (skipping NaN).
  [[nodiscard]] double avg_error(std::size_t source, std::size_t from, std::size_t to) const;
  /// Mean over all sources and steps [from, to).
  [[nodiscard]] double avg_error_all(std::size_t from, std::size_t to) const;
  [[nodiscard]] double avg_false_positives(std::size_t from, std::size_t to) const;
  [[nodiscard]] double avg_false_negatives(std::size_t from, std::size_t to) const;
};

/// Runs the scenario `opts.trials` times with independent measurement noise
/// and localizer seeds; returns averaged per-step metrics.
[[nodiscard]] ExperimentResult run_experiment(const Scenario& scenario,
                                              const ExperimentOptions& opts);

}  // namespace radloc
