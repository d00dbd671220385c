#include "radloc/core/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "radloc/common/math.hpp"
#include "radloc/radiation/intensity_model.hpp"

namespace radloc {

MultiSourceLocalizer::MultiSourceLocalizer(const Environment& env, std::vector<Sensor> sensors,
                                           LocalizerConfig cfg, std::uint64_t seed,
                                           ThreadPool* shared_pool)
    : cfg_(cfg),
      // With a borrowed pool the internal one stays empty (1 = inline, no
      // worker threads) — it exists only so estimator_ always has a pool.
      pool_(shared_pool != nullptr ? 1 : cfg.num_threads),
      filter_(env, std::move(sensors), cfg.filter, Rng(seed)),
      estimator_(env.bounds(), cfg.meanshift, shared_pool != nullptr ? *shared_pool : pool_),
      recent_readings_(filter_.sensors().size()),
      recent_head_(filter_.sensors().size(), 0),
      recent_size_(filter_.sensors().size(), 0) {
  require(cfg_.history_window >= 1, "history window must hold at least one reading");
  for (auto& buf : recent_readings_) buf.assign(cfg_.history_window, 0.0);
}

void MultiSourceLocalizer::note_reading(const Measurement& m) {
  // Caller validated the sensor id. The ring buffer bounds the detection
  // history so evidence from a since-removed source gets flushed.
  auto& buf = recent_readings_[m.sensor];
  buf[recent_head_[m.sensor]] = m.cpm;
  recent_head_[m.sensor] = (recent_head_[m.sensor] + 1) % buf.size();
  recent_size_[m.sensor] = std::min(recent_size_[m.sensor] + 1, buf.size());
}

void MultiSourceLocalizer::process(const Measurement& m) {
  filter_.process(m);
  note_reading(m);
}

ReadingFault MultiSourceLocalizer::try_process(const Measurement& m) {
  const ReadingFault fault = filter_.try_process(m);
  if (fault != ReadingFault::kNone) return fault;
  note_reading(m);
  return ReadingFault::kNone;
}

void MultiSourceLocalizer::process_all(std::span<const Measurement> batch) {
  // Validate the whole batch up front: a malformed reading mid-batch used to
  // throw out of the loop with the earlier readings already applied and no
  // record of progress. Now the throw happens before any state changes.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ReadingFault fault = filter_.validator().check(batch[i]);
    if (fault != ReadingFault::kNone) {
      throw std::invalid_argument(std::string(to_string(fault)) + " (batch index " +
                                  std::to_string(i) + ")");
    }
  }
  (void)try_process_all(batch);
}

std::size_t MultiSourceLocalizer::group_end(std::span<const Measurement> batch,
                                            std::size_t begin) const {
  // Probed with the const check: the filter's admit() still tallies each
  // reading exactly once when the group applies.
  const MeasurementValidator& v = filter_.validator();
  std::size_t end = begin + 1;
  if (!filter_.movement_is_static() || v.check(batch[begin]) != ReadingFault::kNone) return end;
  while (end < batch.size() && batch[end].sensor == batch[begin].sensor &&
         v.check(batch[end]) == ReadingFault::kNone) {
    ++end;
  }
  return end;
}

BatchIngestResult MultiSourceLocalizer::try_process_all(
    std::span<const Measurement> batch,
    const std::function<void(std::size_t, ReadingFault)>& on_reading) {
  BatchIngestResult result;
  std::size_t i = 0;
  while (i < batch.size()) {
    const ReadingFault fault = filter_.validator().check(batch[i]);
    if (fault != ReadingFault::kNone) {
      (void)filter_.try_process(batch[i]);  // tallies the fault
      ++result.rejected;
      ++result.fault_counts[static_cast<std::size_t>(fault)];
      if (result.first_fault == ReadingFault::kNone) result.first_fault = fault;
      if (on_reading) on_reading(i, fault);
      ++i;
      continue;
    }
    const std::size_t end = group_end(batch, i);
    const auto group = batch.subspan(i, end - i);
    (void)filter_.process_fused(group);
    // Detection history sees every reading individually: fusing is a
    // weight-update implementation detail, not an evidence reduction.
    for (const Measurement& m : group) note_reading(m);
    result.processed += group.size();
    for (; i < end; ++i) {
      if (on_reading) on_reading(i, ReadingFault::kNone);
    }
  }
  return result;
}

double MultiSourceLocalizer::contribution(const Source& src, const Sensor& s) const {
  return cfg_.filter.use_known_obstacles
             ? expected_cpm_single(s.pos, src, filter_.environment(), s.response) -
                   s.response.background_cpm
             : expected_cpm_single_free_space(s.pos, src, s.response) - s.response.background_cpm;
}

void MultiSourceLocalizer::append_terms(const Point2& pos, std::vector<Term>& out) const {
  for (const Sensor& s : filter_.sensors()) {
    if (recent_size_[s.id] == 0) continue;
    if (distance(s.pos, pos) > cfg_.filter.fusion_range) continue;
    const double gain = contribution(Source{pos, 1.0}, s);
    if (gain <= 0.0) continue;
    const auto n = static_cast<double>(recent_size_[s.id]);
    double sum = 0.0;
    for (std::size_t r = 0; r < recent_size_[s.id]; ++r) sum += recent_readings_[s.id][r];
    out.push_back(Term{n, sum / n, s.response.background_cpm, gain, s.id});
  }
}

void MultiSourceLocalizer::add_to_bases(const Source& src, std::span<Term> terms) const {
  for (Term& t : terms) t.base += contribution(src, filter_.sensors()[t.sensor]);
}

double MultiSourceLocalizer::max_profile(std::span<const Term> terms, double strength_max) {
  if (terms.empty()) return -std::numeric_limits<double>::infinity();
  const auto f = [&](double s) {
    double total = 0.0;
    for (const auto& t : terms) {
      const double base = std::max(t.base, kMinBase);
      total += t.n * (t.mean * std::log1p(s * t.gain / base) - s * t.gain);
    }
    return total;
  };
  // f'(s) = sum n * gain * (mean / (base + s * gain) - 1), decreasing and
  // convex in s; f''(s) = -sum n * mean * gain^2 / (base + s * gain)^2.
  const auto slope = [&](double s, double& curvature) {
    double d1 = 0.0;
    double d2 = 0.0;
    for (const auto& t : terms) {
      const double rate = std::max(t.base, kMinBase) + s * t.gain;
      const double r = t.mean / rate;
      d1 += t.n * t.gain * (r - 1.0);
      d2 -= t.n * t.gain * t.gain * r / rate;
    }
    curvature = d2;
    return d1;
  };

  double curvature = 0.0;
  if (slope(0.0, curvature) <= 0.0) {
    // No strength adds evidence: the supremum, 0, is approached only as
    // s -> 0. Report f a hair above 0, at smax * (2/3)^80 / 2 — where the
    // 80-step ternary search this maximiser replaced settled — so the value
    // is negative whenever f'(0) < 0 and a threshold of 0 still rejects the
    // candidate, as it always has.
    double hi = strength_max;
    for (int i = 0; i < 80; ++i) hi -= hi / 3.0;
    return f(0.5 * hi);
  }
  if (slope(strength_max, curvature) >= 0.0) return f(strength_max);

  // Safeguarded Newton on f' = 0 inside the bracket [lo, hi], which always
  // holds the root. From the left a Newton step on a convex decreasing f'
  // never passes the root; a step that leaves the bracket anyway (rounding)
  // bisects instead.
  double lo = 0.0;
  double hi = strength_max;
  double s = 0.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double d = slope(s, curvature);
    if (d > 0.0) {
      lo = s;
    } else if (d < 0.0) {
      hi = s;
    } else {
      break;
    }
    double next = s - d / curvature;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    const bool converged = std::abs(next - s) <= 1e-12 * next;
    s = next;
    if (converged) break;
  }
  return f(s);
}

double MultiSourceLocalizer::detection_evidence(
    const SourceEstimate& candidate, std::span<const SourceEstimate> accepted) const {
  // Profile-likelihood detection test at the candidate's position: with
  // lambda0_i the rate under the accepted sources and g_i the unit-strength
  // contribution of a source at the candidate position, the marginal
  // Poisson log-LR of n_i readings with empirical mean mbar_i is
  //   f(s) = sum_i n_i * [ mbar_i * ln((lambda0_i + s*g_i)/lambda0_i) - s*g_i ],
  // maximized over the nuisance strength s >= 0 (f is concave in s). This
  // asks "is there ANY source strength here that adds evidence" — robust to
  // the mode's own strength estimate being noisy.
  std::vector<Term> terms;
  append_terms(candidate.pos, terms);
  for (const auto& a : accepted) add_to_bases(Source{a.pos, a.strength}, terms);
  return max_profile(terms, cfg_.filter.strength_max);
}

std::vector<SourceEstimate> MultiSourceLocalizer::estimate() {
  const std::uint64_t iteration = filter_.iteration();
  const std::uint64_t env_revision = filter_.environment().revision();
  if (memo_.valid && memo_.iteration == iteration && memo_.env_revision == env_revision) {
    return memo_.estimates;
  }
  std::vector<SourceEstimate> out = compute_estimate();
  memo_.valid = true;
  memo_.iteration = iteration;
  memo_.env_revision = env_revision;
  memo_.estimates = out;
  return out;
}

std::vector<SourceEstimate> MultiSourceLocalizer::compute_estimate() {
  // The span covers the whole estimation stage: the mean-shift sweep plus
  // the greedy detection gating that consumes its modes.
  const obs::ScopedSpan span(tracer_, obs::Stage::kMeanShift);
  auto modes = estimator_.estimate(filter_.positions(), filter_.strengths(), filter_.weights());
  if (std::isinf(cfg_.detection_log_lr) && cfg_.detection_log_lr < 0.0) return modes;

  // Greedy forward selection: accept the candidate with the largest marginal
  // evidence, fold it into the explained model, repeat until no remaining
  // candidate clears the threshold. Phantom modes that only re-explain the
  // far field of accepted sources see their marginal evidence collapse.
  // Each candidate's terms are built once; an accepted source's
  // contribution is then added to the remaining candidates' base rates, in
  // acceptance order — the additions detection_evidence(candidate, accepted)
  // makes, so the evidence is the same.
  const std::size_t count = modes.size();
  std::vector<Term> terms;
  std::vector<std::size_t> term_start(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    append_terms(modes[i].pos, terms);
    term_start[i + 1] = terms.size();
  }
  const auto terms_of = [&](std::size_t i) {
    return std::span<Term>(terms).subspan(term_start[i], term_start[i + 1] - term_start[i]);
  };
  std::vector<bool> open(count, true);
  std::vector<SourceEstimate> accepted;
  while (accepted.size() < count) {
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (!open[i]) continue;
      const double gain = max_profile(terms_of(i), cfg_.filter.strength_max);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == count || best_gain < cfg_.detection_log_lr) break;
    accepted.push_back(modes[best]);
    open[best] = false;
    const Source src{modes[best].pos, modes[best].strength};
    for (std::size_t i = 0; i < count; ++i) {
      if (open[i]) add_to_bases(src, terms_of(i));
    }
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const SourceEstimate& a, const SourceEstimate& b) {
              return a.support > b.support;
            });
  return accepted;
}

}  // namespace radloc
