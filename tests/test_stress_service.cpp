// Seeded stress harness for the streaming session service (ctest label
// `stress`; runs under the asan and tsan presets like the rest of the
// harness).
//
// The contract under test (DESIGN.md §5.8): a SessionManager multiplexing N
// sessions over one shared pool — ingests racing drains racing telemetry
// reads, feeds arriving interleaved, lossy, and out of order — leaves every
// session's filter state BIT-IDENTICAL to the same delivered sequence
// replayed serially through a standalone localizer in the same drain
// batches. Thread scheduling and which worker runs which drain must be
// invisible in the result, and so must the batch boundaries of a feed in
// which no sensor's reading directly follows its own (a batch fuses each
// same-sensor run into one update, so a run a boundary splits fuses as two).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "radloc/eval/scenarios.hpp"
#include "radloc/obs/export.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/delivery.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/service/session_manager.hpp"

namespace radloc {
namespace {

struct SessionScript {
  std::vector<SessionReading> feed;  ///< delivered order, corruption included
  std::size_t malformed = 0;         ///< readings the validator must reject
};

/// Builds one session's delivered feed: simulator time steps pushed through
/// a per-session delivery model (in-order / shuffled / lossy / latency), a
/// deterministic ~2% of readings corrupted (NaN/negative CPM, unknown
/// sensor, NaN/negative timestamp).
SessionScript make_script(const Environment& env, const std::vector<Sensor>& sensors,
                          std::size_t session_index, std::uint64_t seed, int steps) {
  const std::vector<Source> sources{
      {{15.0 + 11.0 * static_cast<double>(session_index % 7),
        85.0 - 9.0 * static_cast<double>(session_index % 8)},
       30.0 + 5.0 * static_cast<double>(session_index % 4)}};
  MeasurementSimulator sim(env, sensors, sources);
  Rng noise(seed);
  Rng delivery_rng(seed ^ 0xD15EA5E0ULL);
  Rng corrupt_rng(seed ^ 0xBADC0DEULL);

  std::unique_ptr<DeliveryModel> delivery;
  switch (session_index % 4) {
    case 0:
      delivery = std::make_unique<InOrderDelivery>();
      break;
    case 1:
      delivery = std::make_unique<ShuffledDelivery>();
      break;
    case 2:
      delivery = std::make_unique<LossyDelivery>(0.15, std::make_unique<ShuffledDelivery>());
      break;
    default:
      delivery = std::make_unique<RandomLatencyDelivery>(1.5);
      break;
  }

  SessionScript script;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto emit = [&](std::vector<Measurement> delivered, int step) {
    for (Measurement& m : delivered) {
      SessionReading r{static_cast<double>(step), m};
      if (uniform01(corrupt_rng) < 0.02) {
        ++script.malformed;
        switch (uniform_index(corrupt_rng, 5)) {
          case 0: r.m.cpm = nan; break;
          case 1: r.m.cpm = -3.0; break;
          case 2: r.m.sensor = 100000; break;
          case 3: r.timestamp = nan; break;
          default: r.timestamp = -7.0; break;
        }
      }
      script.feed.push_back(r);
    }
  };
  for (int t = 0; t < steps; ++t) {
    emit(delivery->deliver(delivery_rng, sim.sample_time_step(noise)), t);
  }
  emit(delivery->drain(delivery_rng), steps);
  return script;
}

/// Reading-by-reading replay: the exact delivered sequence through a
/// standalone localizer, mirroring the service's ingest-time timestamp gate
/// (the localizer itself never sees timestamps).
void replay_serial(MultiSourceLocalizer& serial, const SessionScript& script) {
  for (const SessionReading& r : script.feed) {
    if (MeasurementValidator::check_timestamp(r.timestamp) != ReadingFault::kNone) continue;
    (void)serial.try_process(r.m);
  }
}

/// Notes the end of the batch the last drain_all() took from a session: its
/// processed count, which only the draining thread advances.
void note_drain(std::vector<std::size_t>& ends, std::size_t processed) {
  if (processed > (ends.empty() ? 0 : ends.back())) ends.push_back(processed);
}

/// Serial ground truth: the readings the session queued, in order, through
/// a standalone localizer in the service's drain batches (`ends`).
void replay_drains(MultiSourceLocalizer& serial, std::span<const Measurement> queued,
                   const std::vector<std::size_t>& ends) {
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    (void)serial.try_process_all(queued.subspan(begin, end - begin));
    begin = end;
  }
  ASSERT_EQ(begin, queued.size());
}

bool has_same_sensor_run(const std::vector<Measurement>& readings) {
  return std::adjacent_find(readings.begin(), readings.end(),
                            [](const Measurement& a, const Measurement& b) {
                              return a.sensor == b.sensor;
                            }) != readings.end();
}

void expect_same_particles(const MultiSourceLocalizer& a, const MultiSourceLocalizer& b,
                           std::size_t k) {
  ASSERT_EQ(a.filter().size(), b.filter().size()) << k;
  ASSERT_EQ(a.iterations(), b.iterations()) << k;
  for (std::size_t i = 0; i < a.filter().size(); ++i) {
    ASSERT_EQ(a.filter().weights()[i], b.filter().weights()[i]) << k << ":" << i;
    ASSERT_EQ(a.filter().positions()[i], b.filter().positions()[i]) << k << ":" << i;
    ASSERT_EQ(a.filter().strengths()[i], b.filter().strengths()[i]) << k << ":" << i;
  }
}

/// The serial replay checks shared by both harnesses: the managed session
/// equals the drain-batch replay bit for bit, and a feed without same-sensor
/// runs also equals the reading-by-reading replay.
void expect_matches_serial(const MultiSourceLocalizer& managed, MultiSourceLocalizer& serial,
                           MultiSourceLocalizer& per_reading, const SessionScript& script,
                           const std::vector<Measurement>& queued,
                           const std::vector<std::size_t>& drains, std::size_t k) {
  replay_drains(serial, queued, drains);
  expect_same_particles(managed, serial, k);
  if (!has_same_sensor_run(queued)) {
    replay_serial(per_reading, script);
    expect_same_particles(managed, per_reading, k);
  }
}

class StressService : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressService, ConcurrentMultiplexBitIdenticalToSerialReplay) {
  const std::uint64_t master_seed = GetParam();
  Environment env(make_area(100, 100));
  std::vector<Sensor> sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);

  constexpr std::size_t kSessions = 12;
  constexpr int kSteps = 6;
  constexpr std::size_t kProducers = 3;

  SessionConfig cfg;
  cfg.localizer.filter.num_particles = 600;
  // Large enough that backpressure never triggers: drops would depend on
  // drain timing and break the determinism assertion by design.
  cfg.queue_capacity = 1 << 14;

  std::vector<SessionScript> scripts;
  for (std::size_t k = 0; k < kSessions; ++k) {
    scripts.push_back(make_script(env, sensors, k, master_seed * 1000 + k, kSteps));
  }

  ThreadPool pool(4, 4);
  SessionManager mgr(pool);
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t k = 0; k < kSessions; ++k) {
    ids.push_back(mgr.open(env, sensors, cfg, master_seed ^ (k * 7919)));
  }

  // Producers own disjoint session subsets (per-session arrival order is
  // the feed contract); the main thread drains concurrently, so ingest,
  // drain scheduling, filter work, and stats reads all overlap, and a query
  // thread asks random sessions for estimates throughout (memo hits and
  // misses beside drains). Each producer records what its sessions queued;
  // the main thread, the only drainer, records each session's drain
  // batches.
  std::vector<std::vector<Measurement>> queued(kSessions);
  std::vector<std::vector<std::size_t>> drains(kSessions);
  std::atomic<std::size_t> producers_done{0};
  std::atomic<bool> querying{true};
  std::thread query([&] {
    Rng pick(master_seed ^ 0x0E57ULL);
    do {
      (void)mgr.estimate(ids[uniform_index(pick, kSessions)]);
    } while (querying.load());
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = p; k < kSessions; k += kProducers) {
        for (const SessionReading& r : scripts[k].feed) {
          const IngestStatus status = mgr.ingest(ids[k], r);
          ASSERT_NE(status, IngestStatus::kRejectedFull);
          ASSERT_NE(status, IngestStatus::kQueuedDroppedOldest);
          if (status == IngestStatus::kQueued) queued[k].push_back(r.m);
        }
      }
      producers_done.fetch_add(1);
    });
  }
  while (producers_done.load() < kProducers) {
    mgr.drain_all();
    for (std::size_t k = 0; k < kSessions; ++k) note_drain(drains[k], mgr.stats(ids[k]).processed);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  mgr.drain_all();
  for (std::size_t k = 0; k < kSessions; ++k) note_drain(drains[k], mgr.stats(ids[k]).processed);
  querying.store(false);
  query.join();

  for (std::size_t k = 0; k < kSessions; ++k) {
    const SessionScript& script = scripts[k];
    const std::size_t valid = script.feed.size() - script.malformed;
    const SessionStats st = mgr.stats(ids[k]);
    EXPECT_EQ(st.queue_depth, 0u) << k;
    EXPECT_EQ(st.ingested, valid) << k;
    EXPECT_EQ(st.processed, valid) << k;
    EXPECT_EQ(st.rejected_malformed, script.malformed) << k;
    EXPECT_EQ(st.rejected_full, 0u) << k;
    EXPECT_EQ(st.dropped_oldest, 0u) << k;

    MultiSourceLocalizer serial(env, sensors, cfg.localizer, master_seed ^ (k * 7919));
    MultiSourceLocalizer per_reading(env, sensors, cfg.localizer, master_seed ^ (k * 7919));
    const auto& managed = mgr.localizer(ids[k]);
    expect_matches_serial(managed, serial, per_reading, script, queued[k], drains[k], k);
    // applied == what the serial replay applied (drain-time rejects mirror
    // try_process verdicts exactly).
    EXPECT_EQ(st.applied, serial.iterations()) << k;

    // The estimates (mean-shift over identical clouds) must agree too —
    // managed through the shared pool, serial through its own.
    const auto managed_est = mgr.estimate(ids[k]);
    const auto serial_est = serial.estimate();
    ASSERT_EQ(managed_est.size(), serial_est.size()) << k;
    for (std::size_t e = 0; e < managed_est.size(); ++e) {
      EXPECT_EQ(managed_est[e].pos, serial_est[e].pos) << k << ":" << e;
      EXPECT_EQ(managed_est[e].strength, serial_est[e].strength) << k << ":" << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressService, ::testing::Values(1u, 23u, 456u));

// Observability-enabled variant: the same multiplex contract with a
// MetricsRegistry and TraceSink plugged in, plus mid-flight snapshot
// consistency. Every stats() snapshot — taken while ingests and drains are
// racing — must satisfy the cross-counter invariants (one-acquire
// semantics: the counters cannot be torn across the drain's critical
// section), and the registry exporter runs concurrently to exercise the
// pull-gauge lock ordering under tsan.
TEST(StressServiceObs, EnabledObservabilityKeepsDeterminismAndSnapshotConsistency) {
  const std::uint64_t master_seed = 77;
  Environment env(make_area(100, 100));
  std::vector<Sensor> sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);

  constexpr std::size_t kSessions = 8;
  constexpr int kSteps = 5;
  constexpr std::size_t kProducers = 3;

  SessionConfig cfg;
  cfg.localizer.filter.num_particles = 600;
  cfg.queue_capacity = 1 << 14;

  std::vector<SessionScript> scripts;
  for (std::size_t k = 0; k < kSessions; ++k) {
    scripts.push_back(make_script(env, sensors, k, master_seed * 1000 + k, kSteps));
  }

  ThreadPool pool(4, 4);
  obs::MetricsRegistry registry;
  obs::TraceSink sink(2048, /*sample_interval=*/4);
  SessionManager mgr(pool, ServiceObservability{&registry, &sink});
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t k = 0; k < kSessions; ++k) {
    ids.push_back(mgr.open(env, sensors, cfg, master_seed ^ (k * 7919)));
  }

  std::vector<std::vector<Measurement>> queued(kSessions);
  std::vector<std::vector<std::size_t>> drains(kSessions);
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = p; k < kSessions; k += kProducers) {
        for (const SessionReading& r : scripts[k].feed) {
          const IngestStatus status = mgr.ingest(ids[k], r);
          ASSERT_NE(status, IngestStatus::kRejectedFull);
          ASSERT_NE(status, IngestStatus::kQueuedDroppedOldest);
          if (status == IngestStatus::kQueued) queued[k].push_back(r.m);
        }
      }
      producers_done.fetch_add(1);
    });
  }
  while (producers_done.load() < kProducers) {
    mgr.drain_all();
    for (std::size_t k = 0; k < kSessions; ++k) {
      // Mid-flight snapshot invariants: all counters read under ONE mutex
      // acquisition, so no snapshot may catch the drain's tallies half
      // applied.
      const SessionStats st = mgr.stats(ids[k]);
      EXPECT_LE(st.applied, st.processed) << k;
      EXPECT_LE(st.processed + st.queue_depth, st.ingested) << k;
      EXPECT_EQ(st.latency_samples, st.processed) << k;
      note_drain(drains[k], st.processed);
    }
    // Concurrent export: visits every instrument and samples the pull
    // gauges (pool stats, session count) while drains are running.
    (void)obs::prometheus_text(registry);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  mgr.drain_all();

  for (std::size_t k = 0; k < kSessions; ++k) {
    const SessionScript& script = scripts[k];
    const std::size_t valid = script.feed.size() - script.malformed;
    const SessionStats st = mgr.stats(ids[k]);
    note_drain(drains[k], st.processed);
    EXPECT_EQ(st.queue_depth, 0u) << k;
    EXPECT_EQ(st.ingested, valid) << k;
    EXPECT_EQ(st.processed, valid) << k;
    EXPECT_EQ(st.latency_samples, valid) << k;
    EXPECT_EQ(st.rejected_malformed, script.malformed) << k;

    // Registry mirrors agree with the authoritative snapshot once quiesced.
    const obs::Labels sl{{"session", std::to_string(ids[k])}};
    EXPECT_EQ(registry.counter("radloc_session_readings_ingested_total", sl).value(), valid)
        << k;
    EXPECT_EQ(registry.counter("radloc_session_readings_processed_total", sl).value(), valid)
        << k;
    EXPECT_EQ(registry.counter("radloc_session_readings_applied_total", sl).value(),
              st.applied)
        << k;
    EXPECT_EQ(registry.counter("radloc_session_rejected_malformed_total", sl).value(),
              script.malformed)
        << k;
    EXPECT_EQ(registry.histogram("radloc_session_drain_latency_us", sl).count(), valid) << k;

    // Tracing and metric mirroring must not perturb the filter: state stays
    // bit-identical to the serial replay, exactly as in the plain harness.
    MultiSourceLocalizer serial(env, sensors, cfg.localizer, master_seed ^ (k * 7919));
    MultiSourceLocalizer per_reading(env, sensors, cfg.localizer, master_seed ^ (k * 7919));
    expect_matches_serial(mgr.localizer(ids[k]), serial, per_reading, script, queued[k],
                          drains[k], k);
    EXPECT_EQ(st.applied, serial.iterations()) << k;
  }

  // The sink saw spans (sampling 1-in-4 over thousands of stage executions)
  // and every drained event carries a known stage and session label.
  const std::vector<obs::TraceEvent> events = sink.drain();
  EXPECT_FALSE(events.empty());
  for (const obs::TraceEvent& e : events) {
    EXPECT_LT(static_cast<std::size_t>(e.stage), obs::kStageCount);
    EXPECT_GE(e.duration_us, 0.0);
    bool known = false;
    for (const auto id : ids) known = known || e.session == id;
    EXPECT_TRUE(known) << e.session;
  }
}

// estimate() beside drain_all() on another thread. estimate() holds its
// session's drain_mu across mean-shift's parallel_for; when that call's
// wait ran any queued job, it could pick up the same session's drain task
// and lock drain_mu a second time on the same thread, freezing both loops
// within the first few rounds. A hang cannot be joined, so a watchdog ends
// the process if the loops do not stop within 20 s of being told to.
TEST(StressServiceDeadlock, EstimateBesideDrainAllKeepsBothLoopsRunning) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kFloor = 8;  // a frozen pair of loops stops at a handful
  const Scenario sc = make_scenario_a();

  // Two threads and a fan-out of two whatever the host: mean-shift's
  // parallel_for must really queue a chunk for the wait to matter.
  ThreadPool pool(2, /*max_fanout=*/2);
  SessionManager mgr(pool);
  SessionConfig cfg;
  cfg.localizer.filter.num_particles = 600;
  cfg.localizer.filter.fusion_range = sc.recommended_fusion_range;
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t k = 0; k < kSessions; ++k) {
    ids.push_back(mgr.open(sc.env, sc.sensors, cfg, 100 + k));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> drains{0};
  std::atomic<std::size_t> queries{0};
  std::atomic<std::size_t> finished{0};
  std::thread ingest_and_drain([&] {
    MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
    Rng noise(5);
    for (double t = 0.0; !stop.load(); t += 1.0) {
      const std::vector<Measurement> step = sim.sample_time_step(noise);
      for (const auto id : ids) {
        for (const Measurement& m : step) (void)mgr.ingest(id, SessionReading{t, m});
      }
      (void)mgr.drain_all();
      drains.fetch_add(1);
    }
    finished.fetch_add(1);
  });
  std::thread query([&] {
    for (std::size_t k = 0; !stop.load(); ++k) {
      (void)mgr.estimate(ids[k % kSessions]);
      queries.fetch_add(1);
    }
    finished.fetch_add(1);
  });

  // Run until both loops pass the floor (at least 1 s, at most 5 s).
  const auto start = Clock::now();
  while (Clock::now() - start < std::chrono::seconds(5) &&
         (Clock::now() - start < std::chrono::seconds(1) || drains.load() < kFloor ||
          queries.load() < kFloor)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  const auto stopped = Clock::now();
  while (finished.load() < 2) {
    if (Clock::now() - stopped > std::chrono::seconds(20)) {
      std::fprintf(stderr,
                   "StressServiceDeadlock: loops hung after %zu drains and %zu queries\n",
                   drains.load(), queries.load());
      std::fflush(stderr);
      std::_Exit(EXIT_FAILURE);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ingest_and_drain.join();
  query.join();
  EXPECT_GE(drains.load(), kFloor);
  EXPECT_GE(queries.load(), kFloor);
}

}  // namespace
}  // namespace radloc
