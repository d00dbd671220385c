#include "radloc/eval/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "radloc/common/math.hpp"
#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/radiation/transmission_cache.hpp"
#include "radloc/sensornet/delivery.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace radloc {

namespace {

std::unique_ptr<DeliveryModel> make_delivery(const Scenario& scenario,
                                             const ExperimentOptions& opts) {
  DeliveryKind kind = scenario.out_of_order_delivery ? DeliveryKind::kShuffled
                                                     : DeliveryKind::kInOrder;
  if (opts.delivery_override) kind = *opts.delivery_override;

  std::unique_ptr<DeliveryModel> model;
  switch (kind) {
    case DeliveryKind::kInOrder:
      model = std::make_unique<InOrderDelivery>();
      break;
    case DeliveryKind::kShuffled:
      model = std::make_unique<ShuffledDelivery>();
      break;
    case DeliveryKind::kRandomLatency:
      model = std::make_unique<RandomLatencyDelivery>(opts.mean_latency_steps);
      break;
  }
  if (opts.loss_rate > 0.0) {
    model = std::make_unique<LossyDelivery>(opts.loss_rate, std::move(model));
  }
  return model;
}

}  // namespace

double ExperimentResult::avg_error(std::size_t source, std::size_t from, std::size_t to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = from; t < to && t < error.size(); ++t) {
    const double e = error[t][source];
    if (!std::isnan(e)) {
      sum += e;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : std::numeric_limits<double>::quiet_NaN();
}

double ExperimentResult::avg_error_all(std::size_t from, std::size_t to) const {
  if (error.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < error.front().size(); ++j) {
    const double e = avg_error(j, from, to);
    if (!std::isnan(e)) {
      sum += e;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : std::numeric_limits<double>::quiet_NaN();
}

double ExperimentResult::avg_false_positives(std::size_t from, std::size_t to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = from; t < to && t < false_positives.size(); ++t) {
    sum += false_positives[t];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double ExperimentResult::avg_false_negatives(std::size_t from, std::size_t to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = from; t < to && t < false_negatives.size(); ++t) {
    sum += false_negatives[t];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

namespace {

/// Everything one trial produces, kept separate per trial so trials can run
/// concurrently and be reduced afterwards in trial-index order — the
/// reduction then performs the exact floating-point additions, in the exact
/// order, of the seed's serial accumulation loop.
struct TrialAccum {
  /// err[t * num_sources + j]: match error of source j at step t, NaN when
  /// unmatched (one value per (t, j) per trial — never summed in-trial).
  std::vector<double> err;
  std::vector<double> fp;  ///< false positives per step
  std::vector<double> fn;  ///< false negatives per step
  double seconds = 0.0;
  std::uint64_t iterations = 0;
};

/// Per-trial RNG streams, pre-split SERIALLY from the master in the seed's
/// exact statement order (noise split, delivery split, localizer seed draw
/// per trial) so the streams are independent of thread count.
struct TrialStreams {
  Rng noise;
  Rng delivery;
  std::uint64_t localizer_seed;
};

}  // namespace

ExperimentResult run_experiment(const Scenario& scenario, const ExperimentOptions& opts) {
  require(opts.trials > 0, "experiment needs at least one trial");
  require(opts.time_steps > 0, "experiment needs at least one time step");

  const std::size_t num_sources = scenario.sources.size();
  const std::size_t steps = opts.time_steps;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  LocalizerConfig cfg = opts.localizer;
  if (opts.use_scenario_defaults) {
    cfg.filter.num_particles = scenario.recommended_particles;
    cfg.filter.fusion_range = scenario.recommended_fusion_range;
  }

  Rng master(opts.seed);
  std::vector<TrialStreams> streams;
  streams.reserve(opts.trials);
  for (std::size_t trial = 0; trial < opts.trials; ++trial) {
    // Braced-init evaluates left to right: split, split, draw — the seed's
    // per-trial order.
    streams.push_back(TrialStreams{master.split(), master.split(), master()});
  }

  // Immutable per-scenario state shared across trials: the ground-truth
  // simulator (Eq. 4 rates memoized at construction) and one transmission
  // cache prepared serially, up front, for every sensor origin. Both are
  // only read after this point, so concurrent trials borrow them with no
  // hot-path synchronization. Values are identical to what each trial would
  // rebuild for itself — sharing cannot change results.
  std::optional<MeasurementSimulator> shared_sim;
  std::optional<TransmissionCache> shared_cache;
  if (opts.share_scenario_state) {
    shared_sim.emplace(scenario.env, scenario.sensors, scenario.sources);
    if (cfg.filter.use_known_obstacles && cfg.filter.use_transmission_cache) {
      shared_cache.emplace(scenario.env, cfg.filter.transmission_cache_cell);
      for (const Sensor& s : scenario.sensors) (void)shared_cache->prepare(s.pos);
    }
  }

  std::vector<TrialAccum> accums(opts.trials);
  const std::size_t outer =
      std::min(opts.num_threads > 0 ? opts.num_threads : 1, opts.trials);
  // The trial pool is shared with each trial's mean-shift stage: with
  // outer parallelism the inner parallel_for calls run inline on the
  // trial's thread (ThreadPool's nesting policy), so thread count never
  // exceeds `outer`. In the serial case localizers own their pools per
  // cfg.num_threads, exactly as before.
  std::optional<ThreadPool> pool;
  if (outer > 1) pool.emplace(outer);

  const auto run_trial = [&](std::size_t trial) {
    TrialAccum& acc = accums[trial];
    acc.err.assign(steps * num_sources, nan);
    acc.fp.assign(steps, 0.0);
    acc.fn.assign(steps, 0.0);

    Rng noise_rng = streams[trial].noise;
    Rng delivery_rng = streams[trial].delivery;

    std::optional<MeasurementSimulator> own_sim;
    if (!shared_sim) own_sim.emplace(scenario.env, scenario.sensors, scenario.sources);
    const MeasurementSimulator& sim = shared_sim ? *shared_sim : *own_sim;

    MultiSourceLocalizer localizer(scenario.env, scenario.sensors, cfg,
                                   streams[trial].localizer_seed,
                                   pool ? &*pool : nullptr);
    if (shared_cache) localizer.filter().set_shared_transmission_cache(&*shared_cache);
    auto delivery = make_delivery(scenario, opts);

    for (std::size_t t = 0; t < steps; ++t) {
      auto batch = sim.sample_time_step(noise_rng);
      const auto delivered = delivery->deliver(delivery_rng, std::move(batch));

      const auto t0 = std::chrono::steady_clock::now();
      localizer.process_all(delivered);
      const auto estimates = localizer.estimate();
      const auto t1 = std::chrono::steady_clock::now();
      acc.seconds += std::chrono::duration<double>(t1 - t0).count();
      acc.iterations += delivered.size();

      const auto match = match_estimates(scenario.sources, estimates, opts.match_gate);
      for (std::size_t j = 0; j < num_sources; ++j) {
        if (match.error[j]) acc.err[t * num_sources + j] = *match.error[j];
      }
      acc.fp[t] = static_cast<double>(match.false_positives);
      acc.fn[t] = static_cast<double>(match.false_negatives);
    }
  };

  if (pool) {
    ThreadPool::TaskGroup group(*pool);
    for (std::size_t trial = 0; trial < opts.trials; ++trial) {
      group.run([&run_trial, trial] { run_trial(trial); });
    }
    group.wait();
  } else {
    for (std::size_t trial = 0; trial < opts.trials; ++trial) run_trial(trial);
  }

  // Reduce in trial-index order: for every (t, j) cell the additions below
  // happen trial 0, 1, 2, ... — the same floating-point evaluation order as
  // the seed's serial loop, hence bit-identical sums at any thread count.
  std::vector<std::vector<double>> err_sum(steps, std::vector<double>(num_sources, 0.0));
  std::vector<std::vector<std::size_t>> err_n(steps, std::vector<std::size_t>(num_sources, 0));
  std::vector<double> fp_sum(steps, 0.0);
  std::vector<double> fn_sum(steps, 0.0);
  double total_seconds = 0.0;
  std::uint64_t total_iterations = 0;
  for (std::size_t trial = 0; trial < opts.trials; ++trial) {
    const TrialAccum& acc = accums[trial];
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t j = 0; j < num_sources; ++j) {
        const double e = acc.err[t * num_sources + j];
        if (!std::isnan(e)) {
          err_sum[t][j] += e;
          ++err_n[t][j];
        }
      }
      fp_sum[t] += acc.fp[t];
      fn_sum[t] += acc.fn[t];
    }
    total_seconds += acc.seconds;
    total_iterations += acc.iterations;
  }

  ExperimentResult result;
  result.error.assign(steps, std::vector<double>(num_sources, 0.0));
  result.matched_frac.assign(steps, std::vector<double>(num_sources, 0.0));
  result.false_positives.resize(steps);
  result.false_negatives.resize(steps);
  const auto trials = static_cast<double>(opts.trials);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t j = 0; j < num_sources; ++j) {
      result.error[t][j] = err_n[t][j] > 0
                               ? err_sum[t][j] / static_cast<double>(err_n[t][j])
                               : std::numeric_limits<double>::quiet_NaN();
      result.matched_frac[t][j] = static_cast<double>(err_n[t][j]) / trials;
    }
    result.false_positives[t] = fp_sum[t] / trials;
    result.false_negatives[t] = fn_sum[t] / trials;
  }
  result.seconds_per_iteration =
      total_iterations > 0 ? total_seconds / static_cast<double>(total_iterations) : 0.0;
  return result;
}

}  // namespace radloc
