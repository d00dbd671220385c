// The fusion-range particle filter — Sec. V-A, V-B, V-C, V-E of the paper.
//
// One filter iteration per measurement:
//   1. select P' = particles within the reporting sensor's fusion range
//      (Eq. 5), via the spatial grid index;
//   2. predict: evolve P' with the movement model (identity for static
//      sources);
//   3. weight: w <- P_Poisson(m | particle-as-only-source) * w, with the
//      single-source rate from Eq. (4) (free space, unless the filter is
//      configured with known obstacles);
//   4. merge P'' back and renormalize all weights;
//   5. resample P'' locally (systematic), jitter duplicates with
//      N(0, sigma_N), and replace a small fraction with fresh uniform
//      particles.
//
// The state dimension stays 3 regardless of the number of sources; mean-
// shift (meanshift/) later extracts every source from the particle cloud.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "radloc/common/types.hpp"
#include "radloc/filter/config.hpp"
#include "radloc/filter/movement.hpp"
#include "radloc/filter/particle.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/geom/slotted_grid_index.hpp"
#include "radloc/obs/trace.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/radiation/transmission_cache.hpp"
#include "radloc/rng/rng.hpp"
#include "radloc/sensornet/sensor.hpp"
#include "radloc/sensornet/validation.hpp"
#include "radloc/simd/aligned.hpp"

namespace radloc {

class FusionParticleFilter {
 public:
  /// `sensors` are the known sensor positions/responses (measurements refer
  /// to them by id); `env` supplies the area bounds, and — only if
  /// cfg.use_known_obstacles — the obstacle set. Particles are initialized
  /// uniformly at random (Sec. V-A) from `rng`, which then yields one more
  /// draw: the key of the filter's per-reading random streams. Reading t
  /// (iteration() after it is counted) draws its predict and resample
  /// randomness from Rng::stream(key, t) alone. The environment must outlive
  /// the filter.
  FusionParticleFilter(const Environment& env, std::vector<Sensor> sensors, FilterConfig cfg,
                       Rng rng);

  /// Processes one measurement (one filter iteration). Malformed input
  /// (unknown sensor id, NaN/inf/negative CPM — see sensornet/validation.hpp)
  /// throws std::invalid_argument with the specific fault. Returns the
  /// number of particles updated (|P'|); 0 means the fusion range was empty
  /// or the update degenerated and was skipped.
  ///
  /// Degenerate-update semantics (pinned by tests): when the fusion disk is
  /// EMPTY the iteration is a no-op. When the disk is non-empty but the
  /// weight update degenerates (all log-likelihoods -inf, or zero posterior
  /// mass), the PREDICT step has already run — a non-static movement model
  /// has evolved the selected particles — and only the update/resample is
  /// skipped: weights are left exactly as they were.
  std::size_t process(const Measurement& m);

  /// Non-throwing ingestion: validates `m`, tallies the verdict on the
  /// validator, and processes only well-formed measurements. Returns the
  /// fault (ReadingFault::kNone on success) — the choke point for feeds
  /// where malformed readings are expected and must be counted, not fatal.
  ReadingFault try_process(const Measurement& m);

  /// Fused multi-reading update: applies a group of measurements that all
  /// report from ONE sensor as a single weight update — per-particle
  /// log-likelihoods of the K readings add (they share the same hypothesis
  /// rates while no particle moves), so the group costs one subset
  /// traversal, one Poisson/exp pass, and at most one resample instead of K.
  /// Every reading is validated (and tallied) exactly as process(); a group
  /// mixing sensor ids throws std::invalid_argument. Requires a static
  /// movement model. Groups of size 1 take the exact process() path bit for
  /// bit. The fused posterior differs from serially applying the K readings
  /// only by floating-point reordering and by resample placement (the serial
  /// path may resample between readings, the fused path once after them);
  /// both are valid filter iterations over the same evidence. The
  /// localizer's batch ingest fuses every same-sensor run this way
  /// (DESIGN.md §5.9). Returns |P'| like process().
  std::size_t process_fused(std::span<const Measurement> group);

  /// The same filter iteration for a reading taken at an arbitrary position
  /// (a MOBILE detector, cf. the controlled-search literature [18]): the
  /// fusion disk is centered on `at` and the likelihood uses `response`.
  /// `at` must be finite (it need not lie inside the bounds); same
  /// validation and degenerate-update semantics as process().
  std::size_t process_reading(const Point2& at, const SensorResponse& response, double cpm);

  /// Number of iterations processed so far (t). Counts every WELL-FORMED
  /// reading fed through process()/try_process()/process_reading()/
  /// process_fused() — including readings whose fusion disk was empty or
  /// whose update degenerated and was skipped. This is intentional (pinned
  /// by tests): iteration() is the stream clock that keeps
  /// MultiSourceLocalizer::iterations() and the service-layer accounting
  /// aligned with the number of readings fed, not with the subset geometry
  /// of each one.
  [[nodiscard]] std::uint64_t iteration() const { return iteration_; }

  // Particle accessors (struct-of-arrays views; valid until next process()).
  [[nodiscard]] std::span<const Point2> positions() const { return positions_; }
  [[nodiscard]] std::span<const double> strengths() const { return strengths_; }
  [[nodiscard]] std::span<const double> weights() const { return weights_; }
  [[nodiscard]] std::size_t size() const { return positions_.size(); }

  /// AoS copy for callers that prefer whole particles.
  [[nodiscard]] std::vector<Particle> particles() const;

  [[nodiscard]] const FilterConfig& config() const { return cfg_; }
  [[nodiscard]] std::span<const Sensor> sensors() const { return sensors_; }
  [[nodiscard]] const Environment& environment() const { return *env_; }

  /// Replaces the movement model (default: StaticMovement).
  void set_movement_model(std::unique_ptr<MovementModel> model);

  /// Borrows a stage tracer for per-reading pipeline spans (validate,
  /// fusion-disk query, weight update, resample — DESIGN.md §5.10); nullptr
  /// (the default) disables tracing at the cost of one pointer compare per
  /// stage. Instrumentation is passive: it never consumes RNG, reorders FP
  /// work, or changes control flow, so results stay bit-identical with any
  /// tracer wired. The tracer must outlive the filter and is subject to the
  /// single-threaded tracer contract (obs/trace.hpp).
  void set_stage_tracer(obs::StageTracer* tracer) { tracer_ = tracer; }

  /// The per-sensor transmission cache, if cfg enabled one (diagnostics).
  [[nodiscard]] const TransmissionCache* transmission_cache() const { return cache_.get(); }

  /// Borrows an externally owned, fully prepared transmission cache instead
  /// of this filter's own lazily built one — run_experiment's per-scenario
  /// shared read-only state: the fields depend only on the environment and
  /// sensor origins, so concurrent trials can share one cache with no
  /// hot-path synchronization. The cache must be built over the same
  /// environment and cell size as cfg would build, prepared (serially, up
  /// front) for every origin the filter will query, and must outlive the
  /// filter. Origins the shared cache lacks fall back to exact geometry;
  /// nullptr restores the owned cache.
  void set_shared_transmission_cache(const TransmissionCache* cache) { shared_cache_ = cache; }

  /// Ingestion validator: per-fault accept/reject tallies for everything fed
  /// through process()/try_process()/process_reading().
  [[nodiscard]] const MeasurementValidator& validator() const { return validator_; }

  /// Effective number of particles 1 / sum(w^2) — a standard degeneracy
  /// diagnostic (exposed for tests and ablations).
  [[nodiscard]] double effective_sample_size() const;

  // Work/skip counters for the throughput diagnostics and benches.
  /// Cumulative |P'| over all scored readings (particles-per-reading numerator).
  [[nodiscard]] std::uint64_t particles_scored() const { return particles_scored_; }
  /// Resample passes run vs skipped by the ESS gate (ess_resample_threshold).
  [[nodiscard]] std::uint64_t resamples_performed() const { return resamples_performed_; }
  [[nodiscard]] std::uint64_t resamples_skipped() const { return resamples_skipped_; }

  /// Fused groups applied (size >= 2 only) and the readings they covered.
  [[nodiscard]] std::uint64_t fused_groups() const { return fused_groups_; }
  [[nodiscard]] std::uint64_t fused_readings() const { return fused_readings_; }
  /// Always 0; see FilterConfig::scoring_cache_entries.
  static constexpr std::uint64_t scoring_cache_lookups() { return 0; }
  static constexpr std::uint64_t scoring_cache_hits() { return 0; }
  /// True while the movement model is the identity StaticMovement — the
  /// precondition for fused updates (hoisted from the per-reading
  /// dynamic_cast the predict step used to pay).
  [[nodiscard]] bool movement_is_static() const { return movement_is_static_; }
  /// Full relayouts of the particle index since its build (diagnostics; see
  /// SlottedGridIndex::relayouts()).
  [[nodiscard]] std::uint64_t index_relayouts() const { return index_.relayouts(); }

 private:
  void initialize_particles(Rng& rng);
  /// The filter iteration proper; input already validated.
  std::size_t process_reading_impl(const Point2& at, const SensorResponse& response, double cpm);

  /// One reading's working memory: the fusion subset, its gathered SoA
  /// slices, rates and posterior weights, and the resampler's buffers.
  /// Nothing in it outlives a reading, so every filter on a thread shares
  /// that thread's copy (particle_filter.cpp).
  struct Scratch;
  /// The calling thread's Scratch, fetched once per reading.
  static Scratch& thread_scratch();

  /// Selects the fusion subset into s.subset, runs predict, and computes
  /// the per-particle hypothesis rates into s.rates. Returns false when the
  /// disk is empty.
  bool select_and_rate(Scratch& s, const Point2& at, const SensorResponse& response);
  /// Scores s.rates against the (fused) counts and applies the mass-
  /// preserving weight update + ESS-gated resample. `k_sum`/`reps`/
  /// `log_fact_sum` describe the reading group (reps == 1 for a single
  /// reading — the plain single-k expression). Returns |P'| or 0 on a
  /// degenerate update.
  std::size_t apply_scores(Scratch& s, double k_sum, double reps, double log_fact_sum);

  const Environment* env_;
  std::vector<Sensor> sensors_;
  FilterConfig cfg_;
  LocalResampler resampler_;
  std::uint64_t stream_key_ = 0;
  Rng rng_;  ///< the current reading's stream
  MeasurementValidator validator_;
  obs::StageTracer* tracer_ = nullptr;  ///< null = tracing off (the default)
  std::unique_ptr<TransmissionCache> cache_;
  const TransmissionCache* shared_cache_ = nullptr;  ///< wins over cache_ when set

  // SoA particle state, 32-byte aligned for the batch kernels.
  simd::AVector<Point2> positions_;
  simd::AVector<double> strengths_;
  simd::AVector<double> weights_;

  std::unique_ptr<MovementModel> movement_;
  bool movement_is_static_ = true;  ///< hoisted dynamic_cast (set_movement_model)
  /// Built at the first reading. A non-static predict re-files the subset
  /// at once; the particles a resample put into another cell wait in
  /// refile_ until the next reading's selection.
  SlottedGridIndex index_;
  std::vector<std::uint32_t> refile_;
  std::uint64_t iteration_ = 0;
  std::uint64_t particles_scored_ = 0;
  std::uint64_t resamples_performed_ = 0;
  std::uint64_t resamples_skipped_ = 0;
  std::uint64_t fused_groups_ = 0;
  std::uint64_t fused_readings_ = 0;
};

}  // namespace radloc
