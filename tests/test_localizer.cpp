#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "radloc/core/localizer.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/geom/shapes.hpp"
#include "radloc/obs/trace.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/sensornet/delivery.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace radloc {
namespace {

struct Fixture {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;
  LocalizerConfig cfg;

  Fixture() {
    sensors = place_grid(env.bounds(), 6, 6);
    set_background(sensors, 5.0);
    cfg.filter.num_particles = 2000;
  }
};

/// Runs `steps` time steps of in-order measurements through the localizer.
std::vector<SourceEstimate> run_steps(Fixture& f, const std::vector<Source>& sources,
                                      int steps, std::uint64_t seed) {
  MeasurementSimulator sim(f.env, f.sensors, sources);
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, seed);
  Rng noise(seed ^ 0x5555);
  for (int t = 0; t < steps; ++t) {
    loc.process_all(sim.sample_time_step(noise));
  }
  return loc.estimate();
}

TEST(Localizer, SingleSourceLocalizedAccurately) {
  Fixture f;
  const std::vector<Source> truth{{{47, 71}, 50.0}};
  const auto estimates = run_steps(f, truth, 10, 1);
  const auto match = match_estimates(truth, estimates);
  EXPECT_EQ(match.false_negatives, 0u);
  ASSERT_TRUE(match.error[0].has_value());
  EXPECT_LT(*match.error[0], 5.0);
}

TEST(Localizer, TwoSourcesWithoutKnowingK) {
  Fixture f;
  const std::vector<Source> truth{{{47, 71}, 20.0}, {{81, 42}, 20.0}};
  const auto estimates = run_steps(f, truth, 15, 2);
  const auto match = match_estimates(truth, estimates);
  EXPECT_EQ(match.false_negatives, 0u);
  EXPECT_LE(match.false_positives, 1u);
  for (const auto& e : match.error) {
    ASSERT_TRUE(e.has_value());
    EXPECT_LT(*e, 10.0);
  }
}

TEST(Localizer, ThreeSourcesLearnedK) {
  Fixture f;
  const std::vector<Source> truth{{{87, 89}, 50.0}, {{37, 14}, 50.0}, {{55, 51}, 50.0}};
  const auto estimates = run_steps(f, truth, 20, 3);
  const auto match = match_estimates(truth, estimates);
  EXPECT_EQ(match.false_negatives, 0u);
  for (const auto& e : match.error) {
    ASSERT_TRUE(e.has_value());
    EXPECT_LT(*e, 10.0);
  }
}

TEST(Localizer, StrengthEstimatesInRightBallpark) {
  Fixture f;
  const std::vector<Source> truth{{{47, 71}, 100.0}};
  const auto estimates = run_steps(f, truth, 15, 4);
  const auto match = match_estimates(truth, estimates);
  ASSERT_TRUE(match.matched_estimate[0].has_value());
  const double s = estimates[*match.matched_estimate[0]].strength;
  EXPECT_GT(s, 30.0);
  EXPECT_LT(s, 350.0);
}

TEST(Localizer, NoSourcesYieldsNoConfidentEstimates) {
  Fixture f;
  // Background-only world: modes, if any, should carry little support and
  // produce no estimate surviving min_support... but uniform particles can
  // transiently cluster. After several steps of background readings the
  // weights stay diffuse, so estimates (if any) are few.
  const auto estimates = run_steps(f, {}, 10, 5);
  EXPECT_LE(estimates.size(), 3u);
}

TEST(Localizer, OutOfOrderDeliveryStillConverges) {
  Fixture f;
  const std::vector<Source> truth{{{47, 71}, 50.0}, {{81, 42}, 50.0}};
  MeasurementSimulator sim(f.env, f.sensors, truth);
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 6);
  ShuffledDelivery delivery;
  Rng noise(7);
  Rng net(8);
  for (int t = 0; t < 15; ++t) {
    loc.process_all(delivery.deliver(net, sim.sample_time_step(noise)));
  }
  const auto match = match_estimates(truth, loc.estimate());
  EXPECT_EQ(match.false_negatives, 0u);
  for (const auto& e : match.error) {
    ASSERT_TRUE(e.has_value());
    EXPECT_LT(*e, 8.0);
  }
}

TEST(Localizer, LossySensorsToleratedGracefully) {
  Fixture f;
  const std::vector<Source> truth{{{47, 71}, 50.0}};
  MeasurementSimulator sim(f.env, f.sensors, truth);
  // Also kill two sensors entirely.
  sim.kill_sensor(0);
  sim.kill_sensor(35);
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 9);
  LossyDelivery delivery(0.3, std::make_unique<ShuffledDelivery>());
  Rng noise(10);
  Rng net(11);
  for (int t = 0; t < 15; ++t) {
    loc.process_all(delivery.deliver(net, sim.sample_time_step(noise)));
  }
  const auto match = match_estimates(truth, loc.estimate());
  EXPECT_EQ(match.false_negatives, 0u);
  EXPECT_LT(*match.error[0], 8.0);
}

TEST(Localizer, MultithreadedEstimateMatchesSerial) {
  Fixture serial_f;
  Fixture parallel_f;
  parallel_f.cfg.num_threads = 4;
  const std::vector<Source> truth{{{30, 30}, 50.0}, {{70, 70}, 50.0}};

  const auto serial = run_steps(serial_f, truth, 8, 12);
  const auto parallel = run_steps(parallel_f, truth, 8, 12);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i].pos.x, parallel[i].pos.x, 1e-9);
    EXPECT_NEAR(serial[i].pos.y, parallel[i].pos.y, 1e-9);
  }
}

TEST(Localizer, IterationsCounterTracksMeasurements) {
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{50, 50}, 10.0}});
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 13);
  Rng noise(14);
  loc.process_all(sim.sample_time_step(noise));
  EXPECT_EQ(loc.iterations(), f.sensors.size());
}

TEST(Localizer, EstimateIsRepeatableBetweenProcessCalls) {
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{50, 50}, 50.0}});
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 15);
  Rng noise(16);
  for (int t = 0; t < 5; ++t) loc.process_all(sim.sample_time_step(noise));
  const auto a = loc.estimate();
  const auto b = loc.estimate();  // estimation must not perturb the filter
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].pos.x, b[i].pos.x);
    EXPECT_DOUBLE_EQ(a[i].support, b[i].support);
  }
}

TEST(Localizer, RemovedSourceStopsBeingReported) {
  // A source present for 12 steps then removed: within ~15 further steps
  // the estimate list near its position must clear (the bounded detection
  // history flushes the stale evidence; Sec. V-E's random replacement
  // re-seeds the vacated region).
  Fixture f;
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 17);
  Rng noise(18);
  const Point2 old_pos{40, 40};
  {
    MeasurementSimulator sim(f.env, f.sensors, {{old_pos, 40.0}});
    for (int t = 0; t < 12; ++t) loc.process_all(sim.sample_time_step(noise));
  }
  // Present while active:
  {
    bool near = false;
    for (const auto& e : loc.estimate()) {
      if (distance(e.pos, old_pos) < 15.0) near = true;
    }
    ASSERT_TRUE(near);
  }
  // Removed:
  MeasurementSimulator sim(f.env, f.sensors, {});
  int last_seen = -1;
  for (int t = 0; t < 18; ++t) {
    loc.process_all(sim.sample_time_step(noise));
    for (const auto& e : loc.estimate()) {
      if (distance(e.pos, old_pos) < 15.0) last_seen = t;
    }
  }
  EXPECT_LT(last_seen, 15);
}

TEST(Localizer, HistoryWindowValidation) {
  Fixture f;
  f.cfg.history_window = 0;
  EXPECT_THROW(MultiSourceLocalizer(f.env, f.sensors, f.cfg, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch ingestion: process_all must be all-or-nothing on malformed input
// (regression — it used to apply the prefix before throwing mid-batch), and
// try_process_all is the fault-tolerant drain path the service layer uses.

TEST(Localizer, ProcessAllIsAllOrNothingOnMalformedBatch) {
  Fixture f;
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Measurement> batch{{0, 12.0}, {1, 9.0}, {2, nan}, {3, 11.0}};
  EXPECT_THROW(loc.process_all(batch), std::invalid_argument);
  // Nothing was applied: the malformed reading was found before the first
  // process() call, so the well-formed prefix did not leak into the filter.
  EXPECT_EQ(loc.iterations(), 0u);
  try {
    loc.process_all(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("finite"), std::string::npos) << what;
    EXPECT_NE(what.find("index 2"), std::string::npos) << what;
  }
}

TEST(Localizer, TryProcessAllProcessesWellFormedAndTalliesFaults) {
  Fixture f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Measurement> batch{
      {0, 12.0}, {999, 5.0}, {1, nan}, {2, 8.0}, {3, -4.0}, {4, 10.0}};

  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 7);
  const BatchIngestResult r = loc.try_process_all(batch);
  EXPECT_EQ(r.processed, 3u);
  EXPECT_EQ(r.rejected, 3u);
  EXPECT_EQ(r.processed + r.rejected, batch.size());
  EXPECT_EQ(r.first_fault, ReadingFault::kUnknownSensor);
  EXPECT_EQ(r.count(ReadingFault::kUnknownSensor), 1u);
  EXPECT_EQ(r.count(ReadingFault::kNonFiniteCpm), 1u);
  EXPECT_EQ(r.count(ReadingFault::kNegativeCpm), 1u);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(loc.iterations(), 3u);

  // The surviving readings produce exactly the state of a clean feed of the
  // well-formed subsequence — malformed readings are skips, not no-op
  // iterations.
  MultiSourceLocalizer clean(f.env, f.sensors, f.cfg, 7);
  const std::vector<Measurement> good{{0, 12.0}, {2, 8.0}, {4, 10.0}};
  const BatchIngestResult rc = clean.try_process_all(good);
  EXPECT_TRUE(rc.clean());
  ASSERT_EQ(loc.filter().size(), clean.filter().size());
  for (std::size_t i = 0; i < loc.filter().size(); ++i) {
    ASSERT_EQ(loc.filter().weights()[i], clean.filter().weights()[i]) << i;
    ASSERT_EQ(loc.filter().positions()[i], clean.filter().positions()[i]) << i;
  }
}

TEST(Localizer, TryProcessAllCallbackSeesEveryReadingInOrder) {
  Fixture f;
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 7);
  const std::vector<Measurement> batch{{0, 12.0}, {999, 5.0}, {1, 9.0}};
  std::vector<std::pair<std::size_t, ReadingFault>> seen;
  loc.try_process_all(batch, [&](std::size_t i, ReadingFault fault) {
    seen.emplace_back(i, fault);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::size_t, ReadingFault>{0, ReadingFault::kNone}));
  EXPECT_EQ(seen[1], (std::pair<std::size_t, ReadingFault>{1, ReadingFault::kUnknownSensor}));
  EXPECT_EQ(seen[2], (std::pair<std::size_t, ReadingFault>{2, ReadingFault::kNone}));
}

// ---------------------------------------------------------------------------
// Fused same-sensor updates in the batch ingest paths

TEST(FusedUpdates, LocalizerBatchGroupsConsecutiveSameSensorRuns) {
  const Scenario sc = make_scenario_a(10.0);
  LocalizerConfig cfg;
  cfg.filter.num_particles = 600;
  cfg.filter.fusion_range = sc.recommended_fusion_range;
  cfg.filter.ess_resample_threshold = 0.5;
  MultiSourceLocalizer loc(sc.env, sc.sensors, cfg, 42);

  MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  Rng noise(7);
  std::vector<Measurement> batch;
  for (const Measurement& m : sim.sample_time_step(noise)) {
    for (int r = 0; r < 4; ++r) batch.push_back(m);
  }
  loc.process_all(batch);
  const FusionParticleFilter& f = loc.filter();
  EXPECT_EQ(f.iteration(), batch.size());
  EXPECT_GT(f.fused_groups(), 0u);
  EXPECT_EQ(f.fused_readings(), 4 * f.fused_groups()) << "every run in this batch has length 4";

  // A shuffled step, in which no sensor follows itself: every group has
  // size one, so the batch path must equal a try_process loop bit for bit
  // and fuse nothing.
  std::vector<Measurement> step = sim.sample_time_step(noise);
  Rng shuffle_rng(9);
  std::shuffle(step.begin(), step.end(), shuffle_rng);
  for (std::size_t i = 1; i < step.size(); ++i) ASSERT_NE(step[i].sensor, step[i - 1].sensor);
  MultiSourceLocalizer batched(sc.env, sc.sensors, cfg, 43);
  MultiSourceLocalizer serial(sc.env, sc.sensors, cfg, 43);
  const BatchIngestResult res = batched.try_process_all(step);
  for (const Measurement& m : step) ASSERT_EQ(serial.try_process(m), ReadingFault::kNone);
  EXPECT_EQ(res.processed, step.size());
  EXPECT_EQ(batched.filter().fused_groups(), 0u);
  ASSERT_EQ(batched.iterations(), serial.iterations());
  for (std::size_t i = 0; i < batched.filter().size(); ++i) {
    ASSERT_EQ(batched.filter().weights()[i], serial.filter().weights()[i]) << i;
    ASSERT_EQ(batched.filter().positions()[i], serial.filter().positions()[i]) << i;
    ASSERT_EQ(batched.filter().strengths()[i], serial.filter().strengths()[i]) << i;
  }
}

TEST(FusedUpdates, TryProcessAllBreaksRunsOnMalformedWithoutDoubleTally) {
  Fixture f;
  f.cfg.filter.num_particles = 400;
  f.cfg.filter.fusion_range = 60.0;
  f.cfg.filter.ess_resample_threshold = 0.5;
  MultiSourceLocalizer loc(f.env, f.sensors, f.cfg, 42);

  const double nan = std::nan("");
  const std::vector<Measurement> batch{{5, 30.0}, {5, nan}, {5, 31.0}, {5, 29.0}, {5, 30.0}};
  std::vector<std::size_t> order;
  std::vector<ReadingFault> faults;
  const BatchIngestResult res = loc.try_process_all(batch, [&](std::size_t i, ReadingFault fault) {
    order.push_back(i);
    faults.push_back(fault);
  });
  EXPECT_EQ(res.processed, 4u);
  EXPECT_EQ(res.rejected, 1u);
  EXPECT_EQ(res.first_fault, ReadingFault::kNonFiniteCpm);
  ASSERT_EQ(order.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(order[i], i) << "callbacks must fire in batch order";
    EXPECT_EQ(faults[i], i == 1 ? ReadingFault::kNonFiniteCpm : ReadingFault::kNone);
  }
  const FusionParticleFilter& filter = loc.filter();
  EXPECT_EQ(filter.iteration(), 4u);
  EXPECT_EQ(filter.fused_groups(), 1u) << "the NaN breaks the run: [m0], reject, [m2 m3 m4]";
  EXPECT_EQ(filter.fused_readings(), 3u);
  // Each well-formed reading tallies exactly once (probe does not tally).
  EXPECT_EQ(filter.validator().accepted(), 4u);
  EXPECT_EQ(filter.validator().rejected(), 1u);
}

// ---------------------------------------------------------------------------
// estimate()'s memo: the answer is kept with (iterations(), environment
// revision) and a call on the same state returns it without a mean-shift
// span.

/// Bitwise equality of two estimate lists.
void expect_same_estimates(const std::vector<SourceEstimate>& a,
                           const std::vector<SourceEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pos, b[i].pos) << i;
    EXPECT_EQ(a[i].strength, b[i].strength) << i;
    EXPECT_EQ(a[i].support, b[i].support) << i;
  }
}

/// A localizer with every stage span recorded; mean_shift_spans() counts the
/// estimation spans recorded since the last call.
struct TracedLocalizer {
  obs::TraceSink sink{1024, /*sample_interval=*/1};
  obs::StageTracer tracer{&sink, 1};
  MultiSourceLocalizer loc;

  TracedLocalizer(const Environment& env, const std::vector<Sensor>& sensors,
                  const LocalizerConfig& cfg, std::uint64_t seed)
      : loc(env, sensors, cfg, seed) {
    loc.set_stage_tracer(&tracer);
  }

  std::size_t mean_shift_spans() {
    const auto events = sink.drain();
    return static_cast<std::size_t>(std::count_if(
        events.begin(), events.end(),
        [](const obs::TraceEvent& e) { return e.stage == obs::Stage::kMeanShift; }));
  }
};

TEST(EstimateMemo, RepeatCallWithoutReadingsReusesTheAnswer) {
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{47, 71}, 50.0}});
  TracedLocalizer t(f.env, f.sensors, f.cfg, 21);
  Rng noise(22);
  for (int step = 0; step < 5; ++step) t.loc.process_all(sim.sample_time_step(noise));
  (void)t.mean_shift_spans();
  const auto a = t.loc.estimate();
  EXPECT_FALSE(a.empty());
  const auto b = t.loc.estimate();
  expect_same_estimates(a, b);
  EXPECT_EQ(t.mean_shift_spans(), 1u);
}

TEST(EstimateMemo, MalformedReadingKeepsTheAnswer) {
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{47, 71}, 50.0}});
  TracedLocalizer t(f.env, f.sensors, f.cfg, 23);
  Rng noise(24);
  for (int step = 0; step < 4; ++step) t.loc.process_all(sim.sample_time_step(noise));
  const auto a = t.loc.estimate();
  (void)t.mean_shift_spans();
  const std::uint64_t before = t.loc.iterations();
  EXPECT_EQ(t.loc.try_process({999, 5.0}), ReadingFault::kUnknownSensor);
  EXPECT_EQ(t.loc.try_process({3, std::nan("")}), ReadingFault::kNonFiniteCpm);
  const BatchIngestResult r = t.loc.try_process_all(std::vector<Measurement>{{4, -1.0}});
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(t.loc.iterations(), before);
  expect_same_estimates(t.loc.estimate(), a);
  EXPECT_EQ(t.mean_shift_spans(), 0u);
}

TEST(EstimateMemo, EmptyDiskReadingRecomputesTheSameAnswer) {
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{47, 71}, 50.0}});
  TracedLocalizer t(f.env, f.sensors, f.cfg, 25);
  Rng noise(26);
  for (int step = 0; step < 4; ++step) t.loc.process_all(sim.sample_time_step(noise));
  const auto a = t.loc.estimate();
  (void)t.mean_shift_spans();
  // A reading far outside the area: its fusion disk is empty, so it is an
  // applied reading that changes no particle.
  EXPECT_EQ(t.loc.filter().process_reading({-1e4, -1e4}, f.sensors[0].response, 5.0), 0u);
  const auto b = t.loc.estimate();
  EXPECT_EQ(t.mean_shift_spans(), 1u);
  expect_same_estimates(b, a);
}

TEST(EstimateMemo, ObstacleAddedToTheEnvironmentRecomputes) {
  Fixture f;
  f.cfg.filter.use_known_obstacles = true;
  MeasurementSimulator sim(f.env, f.sensors, {{{47, 71}, 50.0}});
  TracedLocalizer t(f.env, f.sensors, f.cfg, 27);
  Rng noise(28);
  for (int step = 0; step < 4; ++step) t.loc.process_all(sim.sample_time_step(noise));
  (void)t.loc.estimate();
  (void)t.mean_shift_spans();
  f.env.add_obstacle(Obstacle(make_rect(40, 55, 55, 60), 0.3));
  (void)t.loc.estimate();
  EXPECT_EQ(t.mean_shift_spans(), 1u) << "an obstacle change must not be answered from the memo";
  (void)t.loc.estimate();
  EXPECT_EQ(t.mean_shift_spans(), 0u);
}

TEST(EstimateMemo, AnswerAfterReadingsEqualsFreshReplay) {
  // Estimates between steps (plain, fused and degenerate readings alike)
  // must leave the final answer equal to a localizer that never estimated.
  Fixture f;
  MeasurementSimulator sim(f.env, f.sensors, {{{47, 71}, 40.0}, {{81, 42}, 40.0}});
  TracedLocalizer t(f.env, f.sensors, f.cfg, 29);
  MultiSourceLocalizer fresh(f.env, f.sensors, f.cfg, 29);
  Rng noise(30);
  std::size_t spans = 0;
  for (int step = 0; step < 8; ++step) {
    std::vector<Measurement> batch = sim.sample_time_step(noise);
    if (step % 3 == 1) {
      // Repeat every reading: each run of two fuses into one update.
      std::vector<Measurement> doubled;
      for (const Measurement& m : batch) {
        doubled.push_back(m);
        doubled.push_back(m);
      }
      batch = doubled;
    }
    t.loc.process_all(batch);
    fresh.process_all(batch);
    (void)t.loc.estimate();
    (void)t.loc.estimate();
    spans += t.mean_shift_spans();
  }
  EXPECT_GT(t.loc.filter().fused_groups(), 0u);
  EXPECT_EQ(spans, 8u) << "one computed answer per step";
  expect_same_estimates(t.loc.estimate(), fresh.estimate());
}

// ---------------------------------------------------------------------------
// Detection gating oracle: the greedy loop and ternary search the localizer
// used before its one-pass gating, kept here as the reference.

/// The reference detection test over a copy of the localizer's detection
/// history (the same per-sensor ring, fed the same readings): terms rebuilt
/// on every call with every accepted source re-summed, and the concave
/// profile maximised by an 80-step ternary search.
class ReferenceGate {
 public:
  ReferenceGate(const Environment& env, std::vector<Sensor> sensors, const LocalizerConfig& cfg)
      : env_(&env),
        sensors_(std::move(sensors)),
        cfg_(cfg),
        ring_(sensors_.size(), std::vector<double>(cfg.history_window, 0.0)),
        head_(sensors_.size(), 0),
        size_(sensors_.size(), 0) {}

  void note(const Measurement& m) {
    auto& buf = ring_[m.sensor];
    buf[head_[m.sensor]] = m.cpm;
    head_[m.sensor] = (head_[m.sensor] + 1) % buf.size();
    size_[m.sensor] = std::min(size_[m.sensor] + 1, buf.size());
  }

  [[nodiscard]] double evidence(const SourceEstimate& candidate,
                                std::span<const SourceEstimate> accepted) const {
    auto contribution = [&](const Source& src, const Sensor& s) {
      return cfg_.filter.use_known_obstacles
                 ? expected_cpm_single(s.pos, src, *env_, s.response) - s.response.background_cpm
                 : expected_cpm_single_free_space(s.pos, src, s.response) -
                       s.response.background_cpm;
    };
    struct Term {
      double n, mean, base, gain;
    };
    std::vector<Term> terms;
    for (const Sensor& s : sensors_) {
      if (size_[s.id] == 0) continue;
      if (distance(s.pos, candidate.pos) > cfg_.filter.fusion_range) continue;
      double base = s.response.background_cpm;
      for (const auto& a : accepted) base += contribution(Source{a.pos, a.strength}, s);
      base = std::max(base, 0.1);
      const double gain = contribution(Source{candidate.pos, 1.0}, s);
      if (gain <= 0.0) continue;
      const auto n = static_cast<double>(size_[s.id]);
      double sum = 0.0;
      for (std::size_t r = 0; r < size_[s.id]; ++r) sum += ring_[s.id][r];
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

  [[nodiscard]] std::vector<SourceEstimate> gate(std::vector<SourceEstimate> pool,
                                                 double threshold) const {
    std::vector<SourceEstimate> accepted;
    while (!pool.empty()) {
      double best_gain = -std::numeric_limits<double>::infinity();
      std::size_t best = pool.size();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double gain = evidence(pool[i], accepted);
        if (gain > best_gain) {
          best_gain = gain;
          best = i;
        }
      }
      if (best == pool.size() || best_gain < threshold) break;
      accepted.push_back(pool[best]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
    }
    std::sort(accepted.begin(), accepted.end(),
              [](const SourceEstimate& a, const SourceEstimate& b) {
                return a.support > b.support;
              });
    return accepted;
  }

 private:
  const Environment* env_;
  std::vector<Sensor> sensors_;
  LocalizerConfig cfg_;
  std::vector<std::vector<double>> ring_;
  std::vector<std::size_t> head_;
  std::vector<std::size_t> size_;
};

/// New and reference evidence agree to 1e-9, relative, or absolute near 0.
void expect_evidence_close(double got, double want, const std::string& where) {
  if (std::isinf(want)) {
    EXPECT_EQ(got, want) << where;
    return;
  }
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << where;
}

TEST(GatingOracle, AcceptedListsAndEvidenceMatchTheTernaryReference) {
  struct World {
    const char* name;
    Scenario sc;
    std::size_t particles;
    bool known_obstacles;
    std::vector<int> ticks;  ///< time steps after which to compare
  };
  const std::vector<World> worlds{
      {"A", make_scenario_a(10.0), 2000, false, {2, 4, 6, 9}},
      {"A3+U", make_scenario_a3(10.0, 5.0, /*with_obstacle=*/true), 2000, true, {2, 4, 6, 9}},
      {"C", make_scenario_c(), 8000, false, {1, 3, 6}},
  };
  const double thresholds[] = {0.0, 3.0, 10.0};
  std::size_t posteriors = 0;
  std::size_t rejected_at_zero = 0;
  std::size_t compared_evidence = 0;
  for (const World& w : worlds) {
    for (const std::uint64_t seed : {31u, 32u}) {
      LocalizerConfig cfg;
      cfg.filter.num_particles = w.particles;
      cfg.filter.fusion_range = w.sc.recommended_fusion_range;
      cfg.filter.use_known_obstacles = w.known_obstacles;
      std::vector<std::unique_ptr<MultiSourceLocalizer>> locs;
      for (const double t : thresholds) {
        cfg.detection_log_lr = t;
        locs.push_back(std::make_unique<MultiSourceLocalizer>(w.sc.env, w.sc.sensors, cfg, seed));
      }
      ReferenceGate ref(w.sc.env, w.sc.sensors, cfg);
      ThreadPool pool(1);
      MeanShiftEstimator estimator(w.sc.env.bounds(), cfg.meanshift, pool);
      MeasurementSimulator sim(w.sc.env, w.sc.sensors, w.sc.sources);
      Rng noise(seed * 7 + 1);
      for (int step = 1; step <= w.ticks.back(); ++step) {
        const std::vector<Measurement> batch = sim.sample_time_step(noise);
        for (auto& loc : locs) loc->process_all(batch);
        for (const Measurement& m : batch) ref.note(m);
        if (std::find(w.ticks.begin(), w.ticks.end(), step) == w.ticks.end()) continue;
        ++posteriors;
        const FusionParticleFilter& filter = locs[0]->filter();
        const auto modes =
            estimator.estimate(filter.positions(), filter.strengths(), filter.weights());
        const std::string where = std::string(w.name) + " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step);
        std::vector<SourceEstimate> longest;
        for (std::size_t k = 0; k < 3; ++k) {
          const auto want = ref.gate(modes, thresholds[k]);
          const auto got = locs[k]->estimate();
          SCOPED_TRACE(where + " threshold " + std::to_string(thresholds[k]));
          expect_same_estimates(got, want);
          if (k == 0) {
            longest = want;
            rejected_at_zero += modes.size() - want.size();
          }
        }
        // Every mode's evidence on top of each prefix of the accepted list.
        for (std::size_t p = 0; p <= longest.size(); ++p) {
          const std::span<const SourceEstimate> accepted(longest.data(), p);
          for (std::size_t m = 0; m < modes.size(); ++m) {
            expect_evidence_close(locs[0]->detection_evidence(modes[m], accepted),
                                  ref.evidence(modes[m], accepted),
                                  where + " mode " + std::to_string(m) + " prefix " +
                                      std::to_string(p));
            ++compared_evidence;
          }
        }
      }
    }
  }
  EXPECT_GE(posteriors, 20u);
  EXPECT_GT(rejected_at_zero, 0u) << "threshold 0 must still reject some modes";
  EXPECT_GT(compared_evidence, 100u);
}

/// A 6 x 6 grid world with one source, its readings fed to both a localizer
/// and the reference gate.
struct GateWorld {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;
  LocalizerConfig cfg;

  GateWorld(double background, double strength_max) {
    sensors = place_grid(env.bounds(), 6, 6);
    set_background(sensors, background);
    cfg.filter.num_particles = 300;
    cfg.filter.strength_max = strength_max;
  }

  /// Feeds `steps` time steps of `sources` to both.
  void feed(MultiSourceLocalizer& loc, ReferenceGate& ref, const std::vector<Source>& sources,
            int steps) const {
    MeasurementSimulator sim(env, sensors, sources);
    Rng noise(77);
    for (int t = 0; t < steps; ++t) {
      const auto batch = sim.sample_time_step(noise);
      loc.process_all(batch);
      for (const Measurement& m : batch) ref.note(m);
    }
  }
};

TEST(GatingOracle, EdgeCasesMatchTheTernaryReference) {
  {
    // f'(0) <= 0: nothing but background near the candidate. The evidence
    // is a hair below 0, so a threshold of 0 still rejects the candidate.
    GateWorld w(5.0, 1000.0);
    MultiSourceLocalizer loc(w.env, w.sensors, w.cfg, 1);
    ReferenceGate ref(w.env, w.sensors, w.cfg);
    w.feed(loc, ref, {}, 6);
    std::size_t below = 0;
    for (const Point2 p : {Point2{20, 20}, Point2{50, 50}, Point2{80, 30}, Point2{10, 90}}) {
      const SourceEstimate c{p, 10.0, 0.1};
      const double got = loc.detection_evidence(c);
      const double want = ref.evidence(c, {});
      expect_evidence_close(got, want, "background-only");
      if (want < 0.0) {
        ++below;
        EXPECT_LT(got, 0.0) << "a threshold of 0 must reject this candidate";
      }
    }
    EXPECT_GT(below, 0u) << "the world must produce a profile decreasing from 0";
  }
  {
    // The maximum at strength_max: a strong source, a low strength cap.
    GateWorld w(5.0, 5.0);
    MultiSourceLocalizer loc(w.env, w.sensors, w.cfg, 2);
    ReferenceGate ref(w.env, w.sensors, w.cfg);
    const Source truth{{50, 50}, 200.0};
    w.feed(loc, ref, {truth}, 4);
    const SourceEstimate c{truth.pos, 5.0, 0.5};
    const double want = ref.evidence(c, {});
    EXPECT_GT(want, 100.0);
    expect_evidence_close(loc.detection_evidence(c), want, "capped strength");
    const SourceEstimate beside{{60, 45}, 5.0, 0.1};
    const std::vector<SourceEstimate> accepted{c};
    expect_evidence_close(loc.detection_evidence(beside, accepted), ref.evidence(beside, accepted),
                          "capped strength, second candidate");
  }
  {
    // No terms: no readings yet, or no sensor within the fusion range.
    GateWorld w(5.0, 1000.0);
    MultiSourceLocalizer loc(w.env, w.sensors, w.cfg, 3);
    ReferenceGate ref(w.env, w.sensors, w.cfg);
    const SourceEstimate c{{50, 50}, 10.0, 0.5};
    EXPECT_EQ(loc.detection_evidence(c), -std::numeric_limits<double>::infinity());
    w.feed(loc, ref, {{{50, 50}, 40.0}}, 2);
    const SourceEstimate far{{1000, 1000}, 10.0, 0.5};
    EXPECT_EQ(loc.detection_evidence(far), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(ref.evidence(far, {}), -std::numeric_limits<double>::infinity());
  }
  {
    // Zero-background sensors: the base rate floors at 0.1 counts.
    GateWorld w(0.0, 1000.0);
    MultiSourceLocalizer loc(w.env, w.sensors, w.cfg, 4);
    ReferenceGate ref(w.env, w.sensors, w.cfg);
    const Source truth{{35, 65}, 30.0};
    w.feed(loc, ref, {truth}, 4);
    for (const Point2 p : {truth.pos, Point2{80, 20}, Point2{45, 60}}) {
      const SourceEstimate c{p, 30.0, 0.2};
      expect_evidence_close(loc.detection_evidence(c), ref.evidence(c, {}), "zero background");
      const std::vector<SourceEstimate> accepted{{truth.pos, truth.strength, 0.5}};
      expect_evidence_close(loc.detection_evidence(c, accepted), ref.evidence(c, accepted),
                            "zero background, on top of the source");
    }
  }
}

}  // namespace
}  // namespace radloc
