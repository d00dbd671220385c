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
  // The weight update shares the mean-shift pool: one pool, one thread-count
  // knob (Table I's scaling parameter) for the whole measurement hot path.
  filter_.set_thread_pool(shared_pool != nullptr ? shared_pool : &pool_);
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
  const double range = cfg_.filter.fusion_range;
  const Environment& env = filter_.environment();
  const bool obstacles = cfg_.filter.use_known_obstacles;

  auto contribution = [&](const Source& src, const Sensor& s) {
    return obstacles ? expected_cpm_single(s.pos, src, env, s.response) -
                           s.response.background_cpm
                     : expected_cpm_single_free_space(s.pos, src, s.response) -
                           s.response.background_cpm;
  };

  struct Term {
    double n, mean, base, gain;
  };
  std::vector<Term> terms;
  for (const Sensor& s : filter_.sensors()) {
    if (recent_size_[s.id] == 0) continue;
    if (distance(s.pos, candidate.pos) > range) continue;
    double base = s.response.background_cpm;
    for (const auto& a : accepted) base += contribution(Source{a.pos, a.strength}, s);
    // Guard the bg = 0 corner: ln(x/0) diverges; floor the base rate at a
    // fraction of a count so zero-background deployments work.
    base = std::max(base, 0.1);
    const double gain = contribution(Source{candidate.pos, 1.0}, s);
    if (gain <= 0.0) continue;
    const auto n = static_cast<double>(recent_size_[s.id]);
    double sum = 0.0;
    for (std::size_t r = 0; r < recent_size_[s.id]; ++r) sum += recent_readings_[s.id][r];
    terms.push_back(Term{n, sum / n, base, gain});
  }
  if (terms.empty()) return -std::numeric_limits<double>::infinity();

  auto f = [&](double s) {
    double total = 0.0;
    for (const auto& t : terms) {
      total += t.n * (t.mean * std::log1p(s * t.gain / t.base) - s * t.gain);
    }
    return total;
  };

  // Ternary search on the concave profile over the physical strength range.
  double lo = 0.0;
  double hi = cfg_.filter.strength_max;
  for (int iter = 0; iter < 80; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (f(m1) < f(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  return f(0.5 * (lo + hi));
}

std::vector<SourceEstimate> MultiSourceLocalizer::estimate() {
  // The span covers the whole estimation stage: the mean-shift sweep plus
  // the greedy detection gating that consumes its modes.
  const obs::ScopedSpan span(tracer_, obs::Stage::kMeanShift);
  auto modes = estimator_.estimate(filter_.positions(), filter_.strengths(), filter_.weights());
  if (std::isinf(cfg_.detection_log_lr) && cfg_.detection_log_lr < 0.0) return modes;

  // Greedy forward selection: accept the candidate with the largest marginal
  // evidence, fold it into the explained model, repeat until no remaining
  // candidate clears the threshold. Phantom modes that only re-explain the
  // far field of accepted sources see their marginal evidence collapse.
  std::vector<SourceEstimate> accepted;
  std::vector<SourceEstimate> pool = std::move(modes);
  while (!pool.empty()) {
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const double gain = detection_evidence(pool[i], accepted);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == pool.size() || best_gain < cfg_.detection_log_lr) break;
    accepted.push_back(pool[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const SourceEstimate& a, const SourceEstimate& b) {
              return a.support > b.support;
            });
  return accepted;
}

}  // namespace radloc
