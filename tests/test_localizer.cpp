#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "radloc/core/localizer.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/scenarios.hpp"
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

}  // namespace
}  // namespace radloc
