#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "radloc/eval/matching.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/service/session_manager.hpp"

namespace radloc {
namespace {

struct Fixture {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;
  SessionConfig cfg;

  Fixture() {
    sensors = place_grid(env.bounds(), 6, 6);
    set_background(sensors, 5.0);
    cfg.localizer.filter.num_particles = 1000;
  }
};

/// Deterministic timed feed for one session: `steps` simulator time steps,
/// timestamps = step index.
std::vector<SessionReading> make_feed(const Fixture& f, const std::vector<Source>& sources,
                                      int steps, std::uint64_t noise_seed) {
  MeasurementSimulator sim(f.env, f.sensors, sources);
  Rng noise(noise_seed);
  std::vector<SessionReading> feed;
  for (int t = 0; t < steps; ++t) {
    for (const Measurement& m : sim.sample_time_step(noise)) {
      feed.push_back(SessionReading{static_cast<double>(t), m});
    }
  }
  return feed;
}

/// Bitwise particle-state equality between a managed session and a
/// standalone localizer.
void expect_bit_identical(const MultiSourceLocalizer& a, const MultiSourceLocalizer& b) {
  ASSERT_EQ(a.filter().size(), b.filter().size());
  ASSERT_EQ(a.iterations(), b.iterations());
  for (std::size_t i = 0; i < a.filter().size(); ++i) {
    ASSERT_EQ(a.filter().weights()[i], b.filter().weights()[i]) << i;
    ASSERT_EQ(a.filter().positions()[i], b.filter().positions()[i]) << i;
    ASSERT_EQ(a.filter().strengths()[i], b.filter().strengths()[i]) << i;
  }
}

TEST(SessionManager, OpenIngestDrainEstimate) {
  Fixture f;
  ThreadPool pool(4, 4);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 42);
  EXPECT_EQ(mgr.num_sessions(), 1u);

  const auto feed = make_feed(f, {{{47, 71}, 50.0}}, 10, 7);
  for (const auto& r : feed) EXPECT_EQ(mgr.ingest(id, r), IngestStatus::kQueued);
  EXPECT_EQ(mgr.stats(id).queue_depth, feed.size());

  EXPECT_EQ(mgr.drain_all(), feed.size());
  const SessionStats st = mgr.stats(id);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.processed, feed.size());
  EXPECT_EQ(st.applied, feed.size());
  EXPECT_EQ(st.filter_iterations, feed.size());

  const auto estimates = mgr.estimate(id);
  const std::vector<Source> truth{{{47, 71}, 50.0}};
  const auto match = match_estimates(truth, estimates);
  EXPECT_EQ(match.false_negatives, 0u);
  ASSERT_TRUE(match.error[0].has_value());
  EXPECT_LT(*match.error[0], 6.0);
}

TEST(SessionManager, ManagedSessionBitIdenticalToSerialReplay) {
  Fixture f;
  ThreadPool pool(4, 4);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 9);
  const auto feed = make_feed(f, {{{30, 60}, 40.0}}, 6, 3);
  // Interleave ingest and drains: partial backlogs must compose to the same
  // serial order.
  for (std::size_t i = 0; i < feed.size(); ++i) {
    mgr.ingest(id, feed[i]);
    if (i % 17 == 0) mgr.drain_all();
  }
  mgr.drain_all();

  MultiSourceLocalizer serial(f.env, f.sensors, f.cfg.localizer, 9);
  std::vector<Measurement> raw;
  for (const auto& r : feed) raw.push_back(r.m);
  serial.try_process_all(raw);
  expect_bit_identical(mgr.localizer(id), serial);
}

TEST(SessionManager, BackpressureRejectNewest) {
  Fixture f;
  f.cfg.queue_capacity = 8;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mgr.ingest(id, {1.0, {0, 10.0}}), IngestStatus::kQueued);
  }
  EXPECT_EQ(mgr.ingest(id, {2.0, {0, 11.0}}), IngestStatus::kRejectedFull);
  EXPECT_EQ(mgr.ingest(id, {3.0, {0, 12.0}}), IngestStatus::kRejectedFull);
  const SessionStats st = mgr.stats(id);
  EXPECT_EQ(st.queue_depth, 8u);
  EXPECT_EQ(st.rejected_full, 2u);
  EXPECT_EQ(st.dropped_oldest, 0u);
  EXPECT_EQ(mgr.drain(id), 8u);
}

TEST(SessionManager, BackpressureDropOldestKeepsMostRecent) {
  Fixture f;
  f.cfg.queue_capacity = 4;
  f.cfg.backpressure = BackpressurePolicy::kDropOldest;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 1);
  for (int i = 0; i < 10; ++i) {
    const auto status = mgr.ingest(id, {static_cast<double>(i), {0, 10.0 + i}});
    EXPECT_EQ(status,
              i < 4 ? IngestStatus::kQueued : IngestStatus::kQueuedDroppedOldest);
  }
  const SessionStats st = mgr.stats(id);
  EXPECT_EQ(st.queue_depth, 4u);
  EXPECT_EQ(st.dropped_oldest, 6u);
  EXPECT_EQ(st.ingested, 10u);
  EXPECT_EQ(mgr.drain(id), 4u);

  // The survivors are the four MOST RECENT readings: replaying exactly
  // those serially reproduces the session's filter state bit for bit.
  MultiSourceLocalizer serial(f.env, f.sensors, f.cfg.localizer, 1);
  const std::vector<Measurement> kept{{0, 16.0}, {0, 17.0}, {0, 18.0}, {0, 19.0}};
  serial.try_process_all(kept);
  expect_bit_identical(mgr.localizer(id), serial);
}

TEST(SessionManager, MalformedReadingsRejectedAtIngest) {
  Fixture f;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(mgr.ingest(id, {nan, {0, 10.0}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {-1.0, {0, 10.0}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {1.0, {0, nan}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {1.0, {0, -2.0}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {1.0, {999, 10.0}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {inf, {0, 10.0}}), IngestStatus::kRejectedMalformed);
  EXPECT_EQ(mgr.ingest(id, {1.0, {0, 10.0}}), IngestStatus::kQueued);

  const SessionStats st = mgr.stats(id);
  EXPECT_EQ(st.queue_depth, 1u);
  EXPECT_EQ(st.rejected_malformed, 6u);
  EXPECT_EQ(st.faults[static_cast<std::size_t>(ReadingFault::kNonFiniteTimestamp)], 2u);
  EXPECT_EQ(st.faults[static_cast<std::size_t>(ReadingFault::kNegativeTimestamp)], 1u);
  EXPECT_EQ(st.faults[static_cast<std::size_t>(ReadingFault::kNonFiniteCpm)], 1u);
  EXPECT_EQ(st.faults[static_cast<std::size_t>(ReadingFault::kNegativeCpm)], 1u);
  EXPECT_EQ(st.faults[static_cast<std::size_t>(ReadingFault::kUnknownSensor)], 1u);
  // Malformed readings never reach the queue, the drain, or the filter.
  EXPECT_EQ(mgr.drain(id), 1u);
  EXPECT_EQ(mgr.stats(id).applied, 1u);
}

TEST(SessionManager, TimestampDrainOrderAppliesInTimeOrder) {
  Fixture f;
  f.cfg.drain_order = DrainOrder::kTimestamp;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 5);

  auto feed = make_feed(f, {{{60, 40}, 30.0}}, 3, 11);
  // Scramble arrival order deterministically; timestamps still carry the
  // true time order.
  Rng shuffle_rng(99);
  for (std::size_t i = feed.size(); i > 1; --i) {
    std::swap(feed[i - 1], feed[uniform_index(shuffle_rng, i)]);
  }
  for (const auto& r : feed) mgr.ingest(id, r);
  mgr.drain(id);

  // Serial replay in timestamp order (stable: ties keep arrival order).
  std::stable_sort(feed.begin(), feed.end(),
                   [](const SessionReading& a, const SessionReading& b) {
                     return a.timestamp < b.timestamp;
                   });
  MultiSourceLocalizer serial(f.env, f.sensors, f.cfg.localizer, 5);
  for (const auto& r : feed) serial.try_process(r.m);
  expect_bit_identical(mgr.localizer(id), serial);
}

TEST(SessionManager, LatencyTelemetryPopulatedByDrains) {
  Fixture f;
  ThreadPool pool(2, 2);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 3);
  const auto feed = make_feed(f, {{{50, 50}, 40.0}}, 4, 13);
  for (const auto& r : feed) mgr.ingest(id, r);
  mgr.drain_all();
  const SessionStats st = mgr.stats(id);
  // The latency histogram is cumulative: one sample per drained reading,
  // updated in the same critical section as the processed tally.
  EXPECT_EQ(st.latency_samples, st.processed);
  EXPECT_EQ(st.latency_samples, feed.size());
  EXPECT_GT(st.p50_latency_us, 0.0);
  EXPECT_GE(st.p99_latency_us, st.p50_latency_us);
}

TEST(SessionManager, StatsSurfaceEssFraction) {
  Fixture f;
  f.cfg.localizer.filter.ess_resample_threshold = 0.5;
  ThreadPool pool(2, 2);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 7);
  EXPECT_EQ(mgr.stats(id).ess_fraction, 1.0) << "pre-drain stats report a uniform cloud";

  for (const auto& r : make_feed(f, {{{40, 60}, 40.0}}, 6, 8)) {
    ASSERT_EQ(mgr.ingest(id, r), IngestStatus::kQueued);
  }
  (void)mgr.drain_all();
  const SessionStats st = mgr.stats(id);
  EXPECT_EQ(st.ess_fraction, mgr.localizer(id).filter().effective_sample_size() /
                                 static_cast<double>(mgr.localizer(id).filter().size()));
  EXPECT_GT(st.ess_fraction, 0.0);
  EXPECT_LE(st.ess_fraction, 1.0 + 1e-9);
}

TEST(SessionManager, StatsSurfaceFusedBatchLength) {
  Fixture f;
  f.cfg.localizer.filter.ess_resample_threshold = 0.5;
  ThreadPool pool(2, 2);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 7);
  EXPECT_EQ(mgr.stats(id).fused_batch_len, 0.0);

  // Every reading repeated four times in a row: each run fuses into one update.
  for (const auto& r : make_feed(f, {{{40, 60}, 40.0}}, 4, 8)) {
    for (int k = 0; k < 4; ++k) ASSERT_EQ(mgr.ingest(id, r), IngestStatus::kQueued);
  }
  (void)mgr.drain_all();
  EXPECT_EQ(mgr.stats(id).fused_batch_len, 4.0) << "repeat-4 runs must fuse";
}

TEST(SessionManager, FusedGroupDrainTimeIsSharedByItsReadings) {
  // A fused group's callbacks fire together once the group has applied. Its
  // readings must share the group's time: billing it all to the first would
  // leave the other three near 0 us, under the histogram's first bound.
  Fixture f;
  f.cfg.localizer.filter.num_particles = 4000;
  ThreadPool pool(1);
  obs::MetricsRegistry registry;
  SessionManager mgr(pool, ServiceObservability{&registry, nullptr});
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 7);
  std::size_t fed = 0;
  for (const auto& r : make_feed(f, {{{40, 60}, 40.0}}, 3, 8)) {
    for (int k = 0; k < 4; ++k, ++fed) ASSERT_EQ(mgr.ingest(id, r), IngestStatus::kQueued);
  }
  (void)mgr.drain_all();
  EXPECT_EQ(mgr.stats(id).fused_batch_len, 4.0);
  const obs::Histogram& latency =
      registry.histogram("radloc_session_drain_latency_us", {{"session", std::to_string(id)}});
  ASSERT_EQ(latency.count(), fed);
  EXPECT_EQ(latency.bucket_count(0), 0u)
      << "readings drained in under " << latency.upper_bound(0) << " us";
}

TEST(SessionManager, SessionsAreIndependent) {
  Fixture f;
  ThreadPool pool(4, 4);
  SessionManager mgr(pool);
  const auto a = mgr.open(f.env, f.sensors, f.cfg, 21);
  const auto b = mgr.open(f.env, f.sensors, f.cfg, 22);
  // Feed ONLY session a; b must stay untouched.
  const auto feed = make_feed(f, {{{25, 75}, 45.0}}, 5, 17);
  for (const auto& r : feed) mgr.ingest(a, r);
  mgr.drain_all();
  EXPECT_EQ(mgr.stats(a).processed, feed.size());
  EXPECT_EQ(mgr.stats(b).processed, 0u);
  EXPECT_EQ(mgr.localizer(b).iterations(), 0u);
}

TEST(SessionManager, CloseAndUnknownIdSemantics) {
  Fixture f;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  const auto id = mgr.open(f.env, f.sensors, f.cfg, 1);
  EXPECT_EQ(mgr.num_sessions(), 1u);
  EXPECT_TRUE(mgr.close(id));
  EXPECT_FALSE(mgr.close(id));
  EXPECT_EQ(mgr.num_sessions(), 0u);
  EXPECT_THROW(mgr.ingest(id, {0.0, {0, 1.0}}), std::out_of_range);
  EXPECT_THROW((void)mgr.stats(id), std::out_of_range);
  EXPECT_THROW(mgr.drain(id), std::out_of_range);
  // Ids are never reused.
  const auto id2 = mgr.open(f.env, f.sensors, f.cfg, 1);
  EXPECT_NE(id2, id);
}

TEST(SessionManager, ZeroCapacityRejectedAtOpen) {
  Fixture f;
  f.cfg.queue_capacity = 0;
  ThreadPool pool(1);
  SessionManager mgr(pool);
  EXPECT_THROW(mgr.open(f.env, f.sensors, f.cfg, 1), std::invalid_argument);
}

TEST(SessionManager, ManySessionsDrainConcurrentlyBitIdentical) {
  Fixture f;
  ThreadPool pool(4, 4);
  SessionManager mgr(pool);
  constexpr int kSessions = 6;
  std::vector<SessionManager::SessionId> ids;
  std::vector<std::vector<SessionReading>> feeds;
  for (int k = 0; k < kSessions; ++k) {
    ids.push_back(mgr.open(f.env, f.sensors, f.cfg, 100 + static_cast<std::uint64_t>(k)));
    feeds.push_back(make_feed(f, {{{20.0 + 10 * k, 80.0 - 9 * k}, 35.0}}, 3,
                              200 + static_cast<std::uint64_t>(k)));
  }
  // Round-robin interleaved ingest across sessions, drained in waves.
  const std::size_t per = feeds[0].size();
  for (std::size_t i = 0; i < per; ++i) {
    for (int k = 0; k < kSessions; ++k) mgr.ingest(ids[k], feeds[k][i]);
    if (i % 29 == 0) mgr.drain_all();
  }
  mgr.drain_all();

  for (int k = 0; k < kSessions; ++k) {
    MultiSourceLocalizer serial(f.env, f.sensors, f.cfg.localizer,
                                100 + static_cast<std::uint64_t>(k));
    for (const auto& r : feeds[k]) serial.try_process(r.m);
    expect_bit_identical(mgr.localizer(ids[k]), serial);
  }
}

}  // namespace
}  // namespace radloc
