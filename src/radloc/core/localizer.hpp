// MultiSourceLocalizer — radloc's public entry point.
//
// Combines the fusion-range particle filter (filter/) with mean-shift mode
// finding (meanshift/) exactly as in Fig. 1 of the paper: feed measurements
// one at a time in arrival order (any order), ask for estimates whenever you
// like. Neither the number of sources nor the obstacle layout is required.
//
//   Environment env(make_area(100, 100));          // bounds only; obstacles unknown
//   auto sensors = place_grid(env.bounds(), 6, 6);
//   MultiSourceLocalizer loc(env, sensors, {}, /*seed=*/42);
//   for (const Measurement& m : arriving_measurements) loc.process(m);
//   for (const SourceEstimate& e : loc.estimate())
//     use(e.pos, e.strength, e.support);
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/sensornet/sensor.hpp"
#include "radloc/sensornet/validation.hpp"

namespace radloc {

/// Outcome of a non-throwing batch ingest (try_process_all): every reading
/// was validated, the well-formed ones were applied in order, the malformed
/// ones were tallied per fault kind. `processed + rejected` always equals
/// the batch size — a batch is never half-accounted.
struct BatchIngestResult {
  std::size_t processed = 0;  ///< well-formed readings applied to the filter
  std::size_t rejected = 0;   ///< malformed readings skipped (and tallied)
  /// Per-fault reject tallies for THIS batch (index by ReadingFault).
  std::array<std::size_t, kReadingFaultCount> fault_counts{};
  /// First fault encountered, kNone when the whole batch was well-formed.
  ReadingFault first_fault = ReadingFault::kNone;

  [[nodiscard]] bool clean() const { return rejected == 0; }
  [[nodiscard]] std::size_t count(ReadingFault fault) const {
    return fault_counts[static_cast<std::size_t>(fault)];
  }
};

struct LocalizerConfig {
  FilterConfig filter;
  MeanShiftConfig meanshift;
  /// Worker threads for the mean-shift stage (1 = serial). The paper's
  /// Table I scaling knob.
  std::size_t num_threads = 1;
  /// Detection threshold: mean-shift modes are accepted greedily, strongest
  /// evidence first; a candidate is reported only when the accumulated
  /// *marginal* log likelihood ratio of "accepted sources + candidate" vs
  /// "accepted sources only", over the observed readings of the sensors
  /// within fusion range of the candidate, exceeds this value. This is the
  /// mode-acceptance rule the paper leaves unspecified: weak but real
  /// sources emerge as evidence accumulates (the paper's slow 4 uCi
  /// convergence), while phantom modes that merely re-explain the far field
  /// of already-accepted sources are rejected. Set to -inf to report every
  /// mean-shift mode.
  double detection_log_lr = 3.0;
  /// Sliding window of recent readings per sensor feeding the detection
  /// test. Bounded history is essential for source DISAPPEARANCE: with
  /// unlimited memory, a removed source keeps passing the detection test
  /// on stale evidence indefinitely. Ten readings per sensor give a weak
  /// 4 uCi source an accumulated log-LR well above the threshold while
  /// flushing a removed source's evidence within ten time steps.
  std::size_t history_window = 10;
};

class MultiSourceLocalizer {
 public:
  /// `env` carries the surveillance-area bounds (and, only when
  /// cfg.filter.use_known_obstacles is set, obstacles the localizer may
  /// exploit); it must outlive the localizer. `sensors` are the known sensor
  /// deployments; `seed` fixes all of the localizer's randomness.
  ///
  /// `shared_pool`, when non-null, is an externally owned pool (it must
  /// outlive the localizer) that the filter and mean-shift stages use
  /// instead of an internal one — this is how trial-level outer parallelism
  /// (run_experiment) and the inner weight-update/mean-shift parallelism
  /// share one pool without oversubscription; cfg.num_threads is ignored in
  /// that case (the pool's thread count rules). See DESIGN.md §5.6.
  MultiSourceLocalizer(const Environment& env, std::vector<Sensor> sensors, LocalizerConfig cfg,
                       std::uint64_t seed, ThreadPool* shared_pool = nullptr);

  /// Feeds one measurement (one filter iteration, Sec. V-B/C/E). Malformed
  /// measurements throw std::invalid_argument naming the specific fault.
  void process(const Measurement& m);

  /// Non-throwing ingestion for feeds where malformed readings are expected
  /// (field telemetry, hostile networks): validates, tallies the verdict
  /// (see filter().validator()), processes only well-formed measurements,
  /// and returns the fault — ReadingFault::kNone on success.
  ReadingFault try_process(const Measurement& m);

  /// Feeds a batch in the given order (convenience for one time step).
  /// All-or-nothing on malformed input: the whole batch is validated BEFORE
  /// anything is applied, so a bad reading mid-batch throws
  /// std::invalid_argument (naming the fault and the offending index) with
  /// the filter state untouched — never half a batch applied with no record
  /// of progress. Feeds that expect malformed readings should use
  /// try_process_all instead. Applies the batch exactly as try_process_all
  /// does, in fused groups (see group_end).
  void process_all(std::span<const Measurement> batch);

  /// Non-throwing batch ingestion — the streaming-service drain path:
  /// validates every reading, applies the well-formed ones in batch order,
  /// tallies each malformed one per fault kind, and reports the outcome.
  /// `on_reading`, when set, is invoked after each reading's verdict (index,
  /// fault) — the hook the service layer uses to stamp per-reading latency
  /// without a second pass. Readings apply in groups (see group_end): each
  /// run of consecutive well-formed readings from one sensor is one fused
  /// weight update (FusionParticleFilter::process_fused), and a malformed
  /// reading breaks the run. Callbacks fire in batch order, a group's all
  /// together once the group has applied; per-reading tallies are exact.
  BatchIngestResult try_process_all(
      std::span<const Measurement> batch,
      const std::function<void(std::size_t, ReadingFault)>& on_reading = nullptr);

  /// One past the last reading of the group the batch paths apply from
  /// batch[begin]: the run of consecutive well-formed readings from
  /// batch[begin]'s sensor. A malformed batch[begin] is a group of one, and
  /// so is every reading while the movement model is not static, since
  /// per-reading prediction cannot be fused. A group of one takes the plain
  /// single-reading path bit for bit.
  [[nodiscard]] std::size_t group_end(std::span<const Measurement> batch,
                                      std::size_t begin) const;

  /// Runs mean-shift over the current particle cloud, validates each mode
  /// against the background-only hypothesis (detection_log_lr), and returns
  /// one estimate per discovered source, sorted by support (Sec. V-D). The
  /// number of returned estimates is the learned K.
  [[nodiscard]] std::vector<SourceEstimate> estimate();

  /// Accumulated marginal log likelihood ratio of adding `candidate` on top
  /// of the `accepted` source set, over all readings seen so far from
  /// sensors within the fusion range of the candidate. Positive = evidence
  /// the candidate is a real additional source. Exposed for diagnostics and
  /// tests; estimate() uses it greedily.
  [[nodiscard]] double detection_evidence(
      const SourceEstimate& candidate,
      std::span<const SourceEstimate> accepted = {}) const;

  [[nodiscard]] const FusionParticleFilter& filter() const { return filter_; }
  [[nodiscard]] FusionParticleFilter& filter() { return filter_; }
  [[nodiscard]] const LocalizerConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t iterations() const { return filter_.iteration(); }

  /// Borrows a stage tracer for pipeline spans: the filter's per-reading
  /// stages plus this layer's mean-shift stage (DESIGN.md §5.10). nullptr
  /// disables. Passive — results stay bit-identical with tracing on. The
  /// tracer must outlive the localizer; single-threaded tracer contract as
  /// in obs/trace.hpp.
  void set_stage_tracer(obs::StageTracer* tracer) {
    tracer_ = tracer;
    filter_.set_stage_tracer(tracer);
  }

 private:
  /// Records `m` in the per-sensor detection-history ring.
  void note_reading(const Measurement& m);

  LocalizerConfig cfg_;
  ThreadPool pool_;
  FusionParticleFilter filter_;
  obs::StageTracer* tracer_ = nullptr;  ///< null = tracing off
  MeanShiftEstimator estimator_;
  // Per-sensor ring buffers of the most recent readings (detection test).
  std::vector<std::vector<double>> recent_readings_;
  std::vector<std::size_t> recent_head_;
  std::vector<std::size_t> recent_size_;
};

}  // namespace radloc
