#include "radloc/filter/particle_filter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "radloc/common/math.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {

namespace {

// Grid pitch for the particle index: half the fusion range balances cell
// occupancy against the number of cells scanned per query.
double index_cell_size(const FilterConfig& cfg) { return std::max(cfg.fusion_range / 2.0, 1.0); }

}  // namespace

// Per-thread, like mean-shift's ascent buffers: a session's filter keeps no
// per-reading memory of its own, so many sessions cost one high-water copy
// per thread rather than one each. A reading runs start to finish on one
// thread and leaves nothing here that the next one reads.
struct FusionParticleFilter::Scratch {
  std::vector<std::uint32_t> subset;
  std::vector<std::uint32_t> subset_cells;  // index cell of each subset entry
  simd::AVector<double> posterior;  // unscaled posterior weight of each subset entry
  // batch-kernel gather slices of the fusion subset (SoA)
  simd::AVector<double> x;
  simd::AVector<double> y;
  simd::AVector<double> strength;
  // per-particle hypothesis rates of the fusion subset
  simd::AVector<double> rates;
  LocalResampler::Scratch resample;
};

FusionParticleFilter::Scratch& FusionParticleFilter::thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

FusionParticleFilter::FusionParticleFilter(const Environment& env, std::vector<Sensor> sensors,
                                           FilterConfig cfg, Rng rng)
    : env_(&env),
      sensors_(std::move(sensors)),
      cfg_(cfg),
      resampler_(cfg, env.bounds()),
      validator_(sensors_.size()),
      movement_(std::make_unique<StaticMovement>()),
      index_(env.bounds(), index_cell_size(cfg)) {
  require(cfg_.num_particles > 0, "filter needs at least one particle");
  require(cfg_.fusion_range > 0.0, "fusion range must be positive");
  require(cfg_.resample_noise_sigma >= 0.0, "resample noise must be non-negative");
  require(cfg_.random_replacement_frac >= 0.0 && cfg_.random_replacement_frac < 1.0,
          "random replacement fraction must be in [0, 1)");
  require(cfg_.strength_min > 0.0 && cfg_.strength_max >= cfg_.strength_min,
          "strength prior range invalid");
  require(std::isfinite(cfg_.ess_resample_threshold) && cfg_.ess_resample_threshold > 0.0,
          "ESS resample threshold must be finite and positive");
  // An empty sensor list is allowed: mobile-detector users feed readings
  // through process_reading() and never reference a sensor id.
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    require(sensors_[i].id == i, "sensor ids must be dense and in order");
  }
  initialize_particles(rng);
  stream_key_ = rng();
}

void FusionParticleFilter::initialize_particles(Rng& rng) {
  const std::size_t np = cfg_.num_particles;
  positions_.resize(np);
  strengths_.resize(np);
  weights_.assign(np, 1.0 / static_cast<double>(np));
  simd::assert_vector_aligned(positions_.data());
  simd::assert_vector_aligned(strengths_.data());
  simd::assert_vector_aligned(weights_.data());
  for (std::size_t i = 0; i < np; ++i) {
    positions_[i] = resampler_.random_position(rng);
    strengths_[i] = resampler_.random_strength(rng);
  }
}

void FusionParticleFilter::set_movement_model(std::unique_ptr<MovementModel> model) {
  require(model != nullptr, "movement model must not be null");
  movement_ = std::move(model);
  // Hoisted once here instead of a dynamic_cast per reading in the predict
  // step; also gates fused updates.
  movement_is_static_ = dynamic_cast<const StaticMovement*>(movement_.get()) != nullptr;
}

double FusionParticleFilter::effective_sample_size() const {
  double sum_sq = 0.0;
  for (const double w : weights_) sum_sq += w * w;
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

std::vector<Particle> FusionParticleFilter::particles() const {
  std::vector<Particle> out(positions_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Particle{positions_[i], strengths_[i], weights_[i]};
  }
  return out;
}

std::size_t FusionParticleFilter::process(const Measurement& m) {
  {
    const obs::ScopedSpan span(tracer_, obs::Stage::kValidate);
    MeasurementValidator::enforce(validator_.admit(m));
  }
  const Sensor& sensor = sensors_[m.sensor];
  return process_reading_impl(sensor.pos, sensor.response, m.cpm);
}

ReadingFault FusionParticleFilter::try_process(const Measurement& m) {
  ReadingFault fault;
  {
    const obs::ScopedSpan span(tracer_, obs::Stage::kValidate);
    fault = validator_.admit(m);
  }
  if (fault != ReadingFault::kNone) return fault;
  const Sensor& sensor = sensors_[m.sensor];
  (void)process_reading_impl(sensor.pos, sensor.response, m.cpm);
  return ReadingFault::kNone;
}

std::size_t FusionParticleFilter::process_reading(const Point2& at,
                                                  const SensorResponse& response, double cpm) {
  MeasurementValidator::enforce(validator_.admit_reading(at, cpm));
  return process_reading_impl(at, response, cpm);
}

std::size_t FusionParticleFilter::process_reading_impl(const Point2& at,
                                                       const SensorResponse& response,
                                                       double cpm) {
  ++iteration_;
  // log(cpm!) is constant across the subset — pay lgamma once, not per
  // particle (PoissonLogPmf evaluates bit-identically to poisson_log_pmf).
  const PoissonLogPmf log_pmf(cpm);
  Scratch& s = thread_scratch();
  if (!select_and_rate(s, at, response)) return 0;
  return apply_scores(s, log_pmf.count(), 1.0, log_pmf.log_k_factorial());
}

std::size_t FusionParticleFilter::process_fused(std::span<const Measurement> group) {
  if (group.empty()) return 0;
  // Every reading is validated and tallied exactly as process() would; a
  // fault anywhere rejects the whole group before any state changes.
  {
    const obs::ScopedSpan span(tracer_, obs::Stage::kValidate);
    for (const auto& m : group) MeasurementValidator::enforce(validator_.admit(m));
  }
  for (const auto& m : group) {
    require(m.sensor == group.front().sensor, "fused group must share one sensor");
  }
  const Sensor& sensor = sensors_[group.front().sensor];
  if (group.size() == 1) {
    // A group of one is a plain reading: not counted as fused, and allowed
    // under any movement model.
    return process_reading_impl(sensor.pos, sensor.response, group.front().cpm);
  }
  require(movement_is_static_,
          "fused updates require a static movement model (per-reading prediction "
          "cannot be batched)");
  // The K readings share one hypothesis-rate vector, so their per-particle
  // log-likelihoods add: sum_j [k_j log(l) - l - log(k_j!)]
  //                    = k_sum log(l) - K*l - sum_j log(k_j!).
  double k_sum = 0.0;
  double log_fact_sum = 0.0;
  for (const auto& m : group) {
    const PoissonLogPmf log_pmf(m.cpm);
    k_sum += log_pmf.count();
    log_fact_sum += log_pmf.log_k_factorial();
  }
  iteration_ += group.size();  // the stream clock counts readings, not updates
  ++fused_groups_;
  fused_readings_ += group.size();
  Scratch& s = thread_scratch();
  if (!select_and_rate(s, sensor.pos, sensor.response)) return 0;
  return apply_scores(s, k_sum, static_cast<double>(group.size()), log_fact_sum);
}

bool FusionParticleFilter::select_and_rate(Scratch& s, const Point2& at,
                                           const SensorResponse& response) {
  // Span covers spatial selection, predict, and the hypothesis-rate kernels.
  const obs::ScopedSpan span(tracer_, obs::Stage::kFusionQuery);
  // The one full index build waits for the first reading, so constructing a
  // filter (opening a session) does no index work. After that, the particles
  // the previous resample put into another cell are re-filed here, O(|P'|).
  if (!index_.built()) {
    index_.rebuild(positions_);
  } else {
    index_.update(positions_, refile_);
  }
  refile_.clear();

  // --- Selection (Eq. 5): P' = particles within the fusion range. ---
  index_.query_radius(positions_, at, cfg_.fusion_range, s.subset, s.subset_cells);
  if (s.subset.empty()) return false;
  rng_ = Rng::stream(stream_key_, iteration_);

  // --- Predict: evolve the selected hypotheses. ---
  if (!movement_is_static_) {
    for (std::size_t k = 0; k < s.subset.size(); ++k) {
      const auto i = s.subset[k];
      movement_->evolve(rng_, positions_[i], strengths_[i]);
      positions_[i] = env_->bounds().clamp(positions_[i]);
      s.subset_cells[k] = index_.cell_id(positions_[i]);
    }
    index_.update(positions_, s.subset);
  }

  const std::size_t n = s.subset.size();
  s.rates.resize(n);

  // Known obstacles: exact Eq. (3) geometry, one particle at a time. Free
  // space: one batch-kernel call (simd/simd.hpp), whose scalar tier replays
  // the seed expression bit for bit; vector tiers are an explicit opt-in.
  if (cfg_.use_known_obstacles) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto i = s.subset[k];
      s.rates[k] = expected_cpm_single(at, Source{positions_[i], strengths_[i]}, *env_, response);
    }
    return true;
  }
  s.x.resize(n);
  s.y.resize(n);
  s.strength.resize(n);
  simd::assert_vector_aligned(s.x.data());
  simd::assert_vector_aligned(s.rates.data());
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = s.subset[k];
    s.x[k] = positions_[i].x;
    s.y[k] = positions_[i].y;
    s.strength[k] = strengths_[i];
  }
  simd::kernels().hypothesis_rates(at.x, at.y, kMicroCurieToCpm * response.efficiency,
                                   response.background_cpm, s.x.data(), s.y.data(),
                                   s.strength.data(), s.rates.data(), n);
  return true;
}

std::size_t FusionParticleFilter::apply_scores(Scratch& s, double k_sum, double reps,
                                              double log_fact_sum) {
  // The weight-update span covers Poisson scoring through the resample
  // decision; when the resample runs, its span nests inside this one.
  const obs::ScopedSpan span(tracer_, obs::Stage::kWeightUpdate);
  // --- Weight update (Sec. V-C), computed in log space. ---
  // Raw likelihoods can underflow for wildly wrong hypotheses; we rescale by
  // the subset max log-likelihood. The subset's *total* mass is preserved
  // explicitly below, so the rescaling cannot tilt the subset-vs-rest
  // balance (the paper normalizes globally after merging; preserving subset
  // mass keeps the same invariant without underflow).
  const std::span<const std::uint32_t> subset = s.subset;
  const double subset_mass_before =
      std::accumulate(subset.begin(), subset.end(), 0.0,
                      [&](double acc, std::uint32_t i) { return acc + weights_[i]; });
  if (subset_mass_before <= 0.0) return 0;

  const std::size_t n = subset.size();
  simd::AVector<double>& post = s.posterior;
  post.resize(n);
  simd::assert_vector_aligned(post.data());
  const simd::Kernels& ker = simd::kernels();
  ker.poisson_log_pmf_fused(k_sum, reps, log_fact_sum, s.rates.data(), post.data(), n);

  const double max_ll = ker.max_value(post.data(), n);
  if (!std::isfinite(max_ll)) return 0;  // measurement impossible for all hypotheses

  ker.exp_shifted(post.data(), max_ll, post.data(), n);
  double new_mass = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    post[k] = weights_[subset[k]] * post[k];
    new_mass += post[k];
  }
  if (new_mass <= 0.0 || !std::isfinite(new_mass)) return 0;  // degenerate update: skip
  particles_scored_ += n;

  // ESS gate: a near-uniform posterior subset gains nothing from resampling.
  // ESS is scale-invariant, so it is computed on the unscaled posterior
  // weights (new_mass is already their sum). Thresholds >= 1.0 short-circuit
  // with no extra pass (FP rounding can push the fraction of an exactly
  // uniform subset marginally above 1.0, so `frac > threshold` alone would
  // not always resample).
  if (cfg_.ess_resample_threshold < 1.0) {
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < n; ++k) sum_sq += post[k] * post[k];
    if (sum_sq > 0.0 &&
        new_mass * new_mass > cfg_.ess_resample_threshold * static_cast<double>(n) * sum_sq) {
      // Skip the resample: scale the posterior so the subset keeps its prior
      // mass (global weights stay normalized), and leave positions as they
      // are.
      const double scale = subset_mass_before / new_mass;
      for (std::size_t k = 0; k < n; ++k) weights_[subset[k]] = post[k] * scale;
      ++resamples_skipped_;
      return n;
    }
  }

  // --- Resample P'' locally (Sec. V-E), straight from the unscaled
  // posterior; it writes every slot's weight (the subset's prior mass,
  // shared evenly) once. ---
  {
    const obs::ScopedSpan resample_span(tracer_, obs::Stage::kResample);
    resampler_.resample(rng_, subset, s.subset_cells, post, subset_mass_before,
                        ParticleSpans{positions_, strengths_, weights_}, index_, s.resample,
                        refile_);
  }
  ++resamples_performed_;
  return n;
}

}  // namespace radloc
