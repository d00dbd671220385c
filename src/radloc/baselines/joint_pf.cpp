#include "radloc/baselines/joint_pf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "radloc/common/math.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {

JointParticleFilter::JointParticleFilter(const Environment& env, std::vector<Sensor> sensors,
                                         JointPfConfig cfg, Rng rng)
    : env_(&env), sensors_(std::move(sensors)), cfg_(cfg), rng_(rng) {
  require(cfg_.num_sources > 0, "joint filter needs K >= 1");
  require(cfg_.num_particles > 0, "joint filter needs at least one particle");
  require(!sensors_.empty(), "joint filter needs sensors");

  states_.resize(cfg_.num_particles * cfg_.num_sources);
  weights_.assign(cfg_.num_particles, 1.0 / static_cast<double>(cfg_.num_particles));
  for (auto& s : states_) {
    s.pos = uniform_point(rng_, env_->bounds());
    s.strength = cfg_.log_uniform_strength
                     ? std::exp(uniform(rng_, std::log(cfg_.strength_min),
                                        std::log(cfg_.strength_max)))
                     : uniform(rng_, cfg_.strength_min, cfg_.strength_max);
  }
}

double JointParticleFilter::joint_rate(const Sensor& s, std::span<const Source> hypothesis) const {
  return expected_cpm(s.pos, hypothesis, *env_, s.response);
}

void JointParticleFilter::process(const Measurement& m) {
  require(m.sensor < sensors_.size(), "measurement from unknown sensor");
  const Sensor& sensor = sensors_[m.sensor];
  const std::size_t k = cfg_.num_sources;

  // log(cpm!) is shared by every particle's likelihood — hoist it, and
  // score all hypothesis rates with one batch kernel call (the scalar tier
  // replays PoissonLogPmf bit for bit; same for the max scan and exp).
  const PoissonLogPmf log_pmf(m.cpm);
  const std::size_t np = weights_.size();
  rates_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    const std::span<const Source> hyp(states_.data() + p * k, k);
    rates_[p] = joint_rate(sensor, hyp);
  }
  const simd::Kernels& ker = simd::kernels();
  ker.poisson_log_pmf_fused(log_pmf.count(), 1.0, log_pmf.log_k_factorial(), rates_.data(),
                            rates_.data(), np);
  const double max_ll = ker.max_value(rates_.data(), np);
  if (!std::isfinite(max_ll)) return;

  ker.exp_shifted(rates_.data(), max_ll, rates_.data(), np);
  double total = 0.0;
  for (std::size_t p = 0; p < np; ++p) {
    weights_[p] *= rates_[p];
    total += weights_[p];
  }
  if (total <= 0.0) {  // degenerate: reset to uniform rather than divide by 0
    std::fill(weights_.begin(), weights_.end(), 1.0 / static_cast<double>(weights_.size()));
    return;
  }
  for (auto& w : weights_) w /= total;

  if (effective_sample_size() <
      cfg_.resample_ess_frac * static_cast<double>(cfg_.num_particles)) {
    resample_all();
  }
}

void JointParticleFilter::resample_all() {
  const std::size_t k = cfg_.num_sources;
  const auto picks = systematic_resample(rng_, weights_, weights_.size());

  std::vector<Source> new_states(states_.size());
  std::uint32_t prev = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t p = 0; p < picks.size(); ++p) {
    const auto src_particle = picks[p];
    for (std::size_t j = 0; j < k; ++j) {
      Source s = states_[src_particle * k + j];
      if (picks[p] == prev) {
        s.pos.x += normal(rng_, 0.0, cfg_.resample_noise_sigma);
        s.pos.y += normal(rng_, 0.0, cfg_.resample_noise_sigma);
        s.pos = env_->bounds().clamp(s.pos);
        s.strength *= std::exp(normal(rng_, 0.0, cfg_.strength_jitter_sigma));
        s.strength = std::clamp(s.strength, cfg_.strength_min, cfg_.strength_max);
      }
      new_states[p * k + j] = s;
    }
    prev = picks[p];
  }
  states_ = std::move(new_states);
  std::fill(weights_.begin(), weights_.end(), 1.0 / static_cast<double>(weights_.size()));
}

std::vector<SourceEstimate> JointParticleFilter::estimate() const {
  const std::size_t k = cfg_.num_sources;
  std::vector<SourceEstimate> out(k);
  for (std::size_t j = 0; j < k; ++j) {
    Point2 pos{0.0, 0.0};
    double log_strength = 0.0;
    for (std::size_t p = 0; p < weights_.size(); ++p) {
      const Source& s = states_[p * k + j];
      pos += weights_[p] * s.pos;
      log_strength += weights_[p] * std::log(s.strength);
    }
    out[j] = SourceEstimate{pos, std::exp(log_strength), 1.0 / static_cast<double>(k)};
  }
  return out;
}

Point2 JointParticleFilter::centroid() const {
  const std::size_t k = cfg_.num_sources;
  Point2 c{0.0, 0.0};
  for (std::size_t p = 0; p < weights_.size(); ++p) {
    for (std::size_t j = 0; j < k; ++j) {
      c += (weights_[p] / static_cast<double>(k)) * states_[p * k + j].pos;
    }
  }
  return c;
}

double JointParticleFilter::effective_sample_size() const {
  double sum_sq = 0.0;
  for (const double w : weights_) sum_sq += w * w;
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

}  // namespace radloc
