#include "radloc/filter/particle_filter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "radloc/common/math.hpp"
#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {

namespace {

// Grid pitch for the particle index: half the fusion range balances cell
// occupancy against the number of cells scanned per query.
double index_cell_size(const FilterConfig& cfg) { return std::max(cfg.fusion_range / 2.0, 1.0); }

}  // namespace

FusionParticleFilter::FusionParticleFilter(const Environment& env, std::vector<Sensor> sensors,
                                           FilterConfig cfg, Rng rng)
    : env_(&env),
      sensors_(std::move(sensors)),
      cfg_(cfg),
      rng_(rng),
      validator_(sensors_.size()),
      movement_(std::make_unique<StaticMovement>()),
      grid_(env.bounds(), index_cell_size(cfg)) {
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
  if (cfg_.use_known_obstacles && cfg_.use_transmission_cache) {
    cache_ = std::make_unique<TransmissionCache>(*env_, cfg_.transmission_cache_cell);
  }
  initialize_particles();
}

void FusionParticleFilter::initialize_particles() {
  const std::size_t np = cfg_.num_particles;
  positions_.resize(np);
  strengths_.resize(np);
  weights_.assign(np, 1.0 / static_cast<double>(np));
  simd::assert_vector_aligned(positions_.data());
  simd::assert_vector_aligned(strengths_.data());
  simd::assert_vector_aligned(weights_.data());
  for (std::size_t i = 0; i < np; ++i) {
    positions_[i] = random_position();
    strengths_[i] = random_strength();
  }
  grid_dirty_ = true;
}

Point2 FusionParticleFilter::random_position() { return uniform_point(rng_, env_->bounds()); }

double FusionParticleFilter::random_strength() {
  if (cfg_.log_uniform_strength) {
    return std::exp(uniform(rng_, std::log(cfg_.strength_min), std::log(cfg_.strength_max)));
  }
  return uniform(rng_, cfg_.strength_min, cfg_.strength_max);
}

double FusionParticleFilter::hypothesis_rate(const Point2& at, const SensorResponse& response,
                                             const Point2& pos, double strength,
                                             const TransmissionCache* cache,
                                             const TransmissionCache::Field* field) const {
  const Source hypothesis{pos, strength};
  if (!cfg_.use_known_obstacles) {
    return expected_cpm_single_free_space(at, hypothesis, response);
  }
  if (field != nullptr) {
    // Cached Eq. (3): exact free-space fading times the memoized
    // transmission of the sensor->particle path.
    return kMicroCurieToCpm * response.efficiency * free_space_intensity(at, hypothesis) *
               cache->transmission(*field, pos) +
           response.background_cpm;
  }
  return expected_cpm_single(at, hypothesis, *env_, response);
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
  if (!select_and_rate(at, response)) return 0;
  return apply_scores(log_pmf.count(), 1.0, log_pmf.log_k_factorial());
}

std::size_t FusionParticleFilter::process_fused(std::span<const Measurement> group) {
  if (group.empty()) return 0;
  // Every reading is validated and tallied exactly as process() would; a
  // fault anywhere rejects the whole group before any state changes.
  for (const auto& m : group) {
    MeasurementValidator::enforce(validator_.admit(m));
  }
  for (const auto& m : group) {
    require(m.sensor == group.front().sensor, "fused group must share one sensor");
  }
  const Sensor& sensor = sensors_[group.front().sensor];
  if (group.size() == 1) {
    // Bit-for-bit the plain path: 1.0 * lambda is exact, same association.
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
  if (!select_and_rate(sensor.pos, sensor.response)) return 0;
  return apply_scores(k_sum, static_cast<double>(group.size()), log_fact_sum);
}

bool FusionParticleFilter::select_and_rate(const Point2& at, const SensorResponse& response) {
  // Span covers spatial selection, predict, and the hypothesis-rate kernels.
  const obs::ScopedSpan span(tracer_, obs::Stage::kFusionQuery);
  if (grid_dirty_) {
    grid_.rebuild(positions_);
    grid_dirty_ = false;
  }

  // --- Selection (Eq. 5): P' = particles within the fusion range. ---
  grid_.query_radius(positions_, at, cfg_.fusion_range, subset_);
  if (subset_.empty()) return false;

  // --- Predict: evolve the selected hypotheses. ---
  if (!movement_is_static_) {
    for (const auto i : subset_) {
      movement_->evolve(rng_, positions_[i], strengths_[i]);
      positions_[i] = env_->bounds().clamp(positions_[i]);
    }
    grid_dirty_ = true;
  }

  // The transmission field for this origin is prepared serially here; the
  // parallel loop below only reads it. A borrowed shared cache (prepared up
  // front, read-only — safe across concurrent trials) wins over the owned
  // one; origins it lacks fall back to exact geometry.
  const TransmissionCache* cache = shared_cache_ != nullptr ? shared_cache_ : cache_.get();
  const TransmissionCache::Field* field = nullptr;
  if (shared_cache_ != nullptr) {
    field = shared_cache_->find(at);
  } else if (cache_ != nullptr) {
    field = cache_->prepare(at);
  }

  const std::size_t n = subset_.size();
  rates_.resize(n);
  const simd::Kernels& ker = simd::kernels();

  // Rates run through the batch kernels (simd/simd.hpp) whenever the rate
  // is pure arithmetic: free space, or the cached Eq. (3) path whose
  // transmissions are bilinear lookups. Obstacle geometry without a cache
  // field keeps the per-particle exact path. The scalar tier replays the
  // seed expressions bit for bit; vector tiers are an explicit opt-in.
  const bool batched = !cfg_.use_known_obstacles || field != nullptr;
  if (batched) {
    scratch_x_.resize(n);
    scratch_y_.resize(n);
    scratch_s_.resize(n);
    const bool use_field = cfg_.use_known_obstacles;
    if (use_field) scratch_t_.resize(n);
    simd::assert_vector_aligned(scratch_x_.data());
    simd::assert_vector_aligned(rates_.data());
    const double scale = kMicroCurieToCpm * response.efficiency;
    const simd::BilinearGrid grid = use_field ? cache->grid_view(*field) : simd::BilinearGrid{};
    const auto rate_chunk = [&](std::size_t begin, std::size_t end) {
      const std::size_t len = end - begin;
      if (len == 0) return;
      double* gx = scratch_x_.data() + begin;
      double* gy = scratch_y_.data() + begin;
      double* gs = scratch_s_.data() + begin;
      for (std::size_t k = 0; k < len; ++k) {
        const auto i = subset_[begin + k];
        gx[k] = positions_[i].x;
        gy[k] = positions_[i].y;
        gs[k] = strengths_[i];
      }
      const double* gt = nullptr;
      if (use_field) {
        double* t = scratch_t_.data() + begin;
        ker.bilinear(grid, gx, gy, t, len);
        gt = t;
      }
      ker.hypothesis_rates(at.x, at.y, scale, response.background_cpm, gx, gy, gs, gt,
                           rates_.data() + begin, len);
    };
    if (pool_ != nullptr) {
      // Chunks write disjoint slots; kernels are elementwise with padded
      // tails, so any chunking yields the same bits within a tier, and the
      // scoring/reductions downstream run serially in index order.
      pool_->parallel_for(n, rate_chunk);
    } else {
      rate_chunk(0, n);
    }
  } else {
    const auto rate_chunk = [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const auto i = subset_[k];
        rates_[k] = hypothesis_rate(at, response, positions_[i], strengths_[i], cache, field);
      }
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(n, rate_chunk);
    } else {
      rate_chunk(0, n);
    }
  }
  return true;
}

std::size_t FusionParticleFilter::apply_scores(double k_sum, double reps, double log_fact_sum) {
  // The weight-update span covers Poisson scoring through the resample
  // decision; when the resample runs, its span nests inside this one.
  const obs::ScopedSpan span(tracer_, obs::Stage::kWeightUpdate);
  // --- Weight update (Sec. V-C), computed in log space. ---
  // Raw likelihoods can underflow for wildly wrong hypotheses; we rescale by
  // the subset max log-likelihood. The subset's *total* mass is preserved
  // explicitly below, so the rescaling cannot tilt the subset-vs-rest
  // balance (the paper normalizes globally after merging; preserving subset
  // mass keeps the same invariant without underflow).
  const std::span<const std::uint32_t> subset = subset_;
  const double subset_mass_before =
      std::accumulate(subset.begin(), subset.end(), 0.0,
                      [&](double acc, std::uint32_t i) { return acc + weights_[i]; });
  if (subset_mass_before <= 0.0) return 0;

  const std::size_t n = subset.size();
  subset_weights_.resize(n);
  simd::assert_vector_aligned(subset_weights_.data());
  const simd::Kernels& ker = simd::kernels();
  const bool fused = reps != 1.0;
  const auto pmf_chunk = [&](std::size_t begin, std::size_t end) {
    const std::size_t len = end - begin;
    if (len == 0) return;
    if (fused) {
      ker.poisson_log_pmf_fused(k_sum, reps, log_fact_sum, rates_.data() + begin,
                                subset_weights_.data() + begin, len);
    } else {
      ker.poisson_log_pmf(k_sum, log_fact_sum, rates_.data() + begin,
                          subset_weights_.data() + begin, len);
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(n, pmf_chunk);
  } else {
    pmf_chunk(0, n);
  }

  const double max_ll = ker.max_value(subset_weights_.data(), n);
  if (!std::isfinite(max_ll)) return 0;  // measurement impossible for all hypotheses

  ker.exp_shifted(subset_weights_.data(), max_ll, subset_weights_.data(), n);
  double new_mass = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    subset_weights_[k] = weights_[subset[k]] * subset_weights_[k];
    new_mass += subset_weights_[k];
  }
  if (new_mass <= 0.0 || !std::isfinite(new_mass)) return 0;  // degenerate update: skip
  particles_scored_ += n;

  // Scale the posterior subset weights so the subset keeps its prior mass,
  // then write back. Global weights remain normalized.
  const double scale = subset_mass_before / new_mass;
  for (std::size_t k = 0; k < subset.size(); ++k) {
    weights_[subset[k]] = subset_weights_[k] * scale;
  }

  // ESS gate: a near-uniform posterior subset gains nothing from resampling.
  // ESS is scale-invariant, so it is computed on the unscaled posterior
  // weights (new_mass is already their sum). Thresholds >= 1.0 short-circuit
  // — no extra pass, no behavior change, bit-identical to the seed (FP
  // rounding can push the fraction of an exactly uniform subset marginally
  // above 1.0, so `frac > threshold` alone would not preserve that).
  if (cfg_.ess_resample_threshold < 1.0) {
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < n; ++k) sum_sq += subset_weights_[k] * subset_weights_[k];
    if (sum_sq > 0.0 &&
        new_mass * new_mass > cfg_.ess_resample_threshold * static_cast<double>(n) * sum_sq) {
      // Skip the resample: no RNG consumed; positions unchanged by this
      // branch, so the grid stays valid unless predict already dirtied it.
      ++resamples_skipped_;
      return subset.size();
    }
  }

  // --- Resample P'' locally (Sec. V-E). ---
  resample_subset(subset, subset_mass_before);
  ++resamples_performed_;
  grid_dirty_ = true;

  return subset.size();
}

void FusionParticleFilter::resample_subset(std::span<const std::uint32_t> subset,
                                           double subset_mass) {
  const obs::ScopedSpan span(tracer_, obs::Stage::kResample);
  subset_weights_.resize(subset.size());
  for (std::size_t k = 0; k < subset.size(); ++k) subset_weights_[k] = weights_[subset[k]];

  systematic_resample(rng_, subset_weights_, subset.size(), picks_);

  // Materialize the resampled hypotheses before overwriting the slots.
  // picks_/drawn_ are members: a steady-state reading reuses their capacity
  // instead of allocating (tests/test_alloc_steady.cpp).
  auto& drawn = drawn_;
  drawn.clear();
  drawn.reserve(picks_.size());
  std::uint32_t prev = std::numeric_limits<std::uint32_t>::max();
  for (const auto k : picks_) {
    const auto i = subset[k];
    Drawn d{positions_[i], strengths_[i]};
    if (k == prev) {
      // Duplicated particle: regularization jitter (Gordon et al. [24]).
      d.pos.x += normal(rng_, 0.0, cfg_.resample_noise_sigma);
      d.pos.y += normal(rng_, 0.0, cfg_.resample_noise_sigma);
      d.pos = env_->bounds().clamp(d.pos);
      if (cfg_.strength_jitter_sigma > 0.0) {
        d.strength *= std::exp(normal(rng_, 0.0, cfg_.strength_jitter_sigma));
        d.strength = std::clamp(d.strength, cfg_.strength_min, cfg_.strength_max);
      }
    }
    prev = k;
    drawn.push_back(d);
  }

  // Fresh uniform particles for source appearance (Sec. V-E, last para.).
  for (auto& d : drawn) {
    if (uniform01(rng_) < cfg_.random_replacement_frac) {
      d.pos = random_position();
      d.strength = random_strength();
    }
  }

  // Write back with uniform weights that preserve the subset's mass.
  const double w = subset_mass / static_cast<double>(subset.size());
  for (std::size_t k = 0; k < subset.size(); ++k) {
    const auto slot = subset[k];
    positions_[slot] = drawn[k].pos;
    strengths_[slot] = drawn[k].strength;
    weights_[slot] = w;
  }
}

}  // namespace radloc
