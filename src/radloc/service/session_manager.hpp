// Streaming multi-session ingestion service — the production shape of the
// paper's online filter: ONE long-lived process multiplexing many
// independent surveillance areas ("sessions", one localizer each) over one
// shared ThreadPool.
//
// The paper's fusion-range locality (Sec. V-B) keeps per-reading work small
// — one filter iteration touches only the particles within one sensor's
// fusion disk — which is exactly what makes thousands of interleaved
// measurement streams drainable online. The pieces:
//
//   ingest   thread-safe, cheap: validate the timed reading at the
//            MeasurementValidator choke point (timestamps included — a NaN
//            timestamp would break the drain's ordering comparator), then
//            enqueue on the session's BOUNDED queue. A full queue applies
//            the session's backpressure policy: reject the new reading, or
//            drop the oldest queued one to make room. Every verdict is
//            tallied per session.
//   drain    one TaskGroup task per session with a backlog: snapshot the
//            queue, feed it through MultiSourceLocalizer::try_process_all
//            (malformed readings are counted skips, never a half-applied
//            batch), stamping per-reading latency. Sessions drain
//            concurrently; WITHIN a session readings apply strictly in
//            queue order on one thread at a time, so every session's filter
//            state is bit-identical to the same feed replayed serially
//            through a standalone localizer (pinned by
//            tests/test_stress_service.cpp).
//   stats    per-session telemetry: queue depth, ingest/drop/reject
//            counters, per-fault tallies, p50/p99 per-reading drain latency
//            from a fixed-bucket log-scale histogram (obs/metrics.hpp).
//
// Observability (DESIGN.md §5.10): constructed with a ServiceObservability
// handle, the manager mirrors every per-session tally into named
// MetricsRegistry instruments (counters/gauges/latency histogram, labelled
// by session id), registers pull gauges for the shared pool, and threads a
// per-session StageTracer through the localizer so each drained reading
// emits pipeline stage spans into the TraceSink. All of it is passive —
// filter results stay bit-identical — and with the default (null) handle
// the manager behaves exactly as before, with a session-owned histogram
// backing the latency percentiles.
//
// Exception-safety contract (DESIGN.md §5.8): drain() schedules work
// through TaskGroup, so the first exception thrown by any session's drain
// is rethrown at drain()'s return — the remaining sessions still complete
// their drains, the pool survives, and the manager stays usable. This is
// only sound on top of the ThreadPool exception-propagation guarantee
// (concurrency/thread_pool.hpp); before that fix a throwing task killed the
// whole process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/obs/metrics.hpp"
#include "radloc/obs/trace.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/sensornet/sensor.hpp"
#include "radloc/sensornet/validation.hpp"

namespace radloc {

/// One reading as it arrives off the wire: the paper's Measurement plus the
/// stream timestamp (seconds since stream start; any monotone clock works).
/// The filter itself is order-agnostic — the timestamp exists for the
/// optional time-ordered drain, staleness decisions, and telemetry.
struct SessionReading {
  double timestamp = 0.0;
  Measurement m;
};

/// What a session does when a reading arrives and its queue is full.
enum class BackpressurePolicy : std::uint8_t {
  kRejectNewest,  ///< refuse the arriving reading (loss at the edge)
  kDropOldest,    ///< evict the oldest queued reading to make room
};

/// How a drained backlog is ordered before it is applied.
enum class DrainOrder : std::uint8_t {
  kArrival,    ///< queue order — the paper's arrival-order iteration
  kTimestamp,  ///< stable-sorted by timestamp within each drained batch
};

struct SessionConfig {
  LocalizerConfig localizer;
  /// Bounded ingest queue: readings admitted but not yet drained.
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kRejectNewest;
  DrainOrder drain_order = DrainOrder::kArrival;
};

/// Verdict of one ingest call.
enum class IngestStatus : std::uint8_t {
  kQueued,              ///< admitted, queue had room
  kQueuedDroppedOldest, ///< admitted after evicting the oldest (kDropOldest)
  kRejectedMalformed,   ///< failed validation (see SessionStats::faults)
  kRejectedFull,        ///< queue full under kRejectNewest
};

/// Human-readable ingest verdict, for logs and CLI output.
[[nodiscard]] const char* to_string(IngestStatus status);

/// Point-in-time per-session telemetry snapshot.
struct SessionStats {
  std::size_t queue_depth = 0;      ///< readings admitted, not yet drained
  std::size_t ingested = 0;         ///< readings admitted into the queue
  std::size_t processed = 0;        ///< readings drained through the localizer
  std::size_t applied = 0;          ///< drained readings the filter accepted
  std::size_t rejected_malformed = 0;  ///< ingest-time validation rejects
  std::size_t rejected_full = 0;       ///< backpressure rejects (kRejectNewest)
  std::size_t dropped_oldest = 0;      ///< backpressure evictions (kDropOldest)
  /// Ingest-time per-fault tallies (index by ReadingFault; kNone = accepts).
  std::array<std::size_t, kReadingFaultCount> faults{};
  std::uint64_t filter_iterations = 0;
  /// Per-reading drain latency percentiles over ALL drained readings, in
  /// microseconds, read from the session's log-scale latency histogram
  /// (bucket-resolution nearest-rank, obs::Histogram::quantile); 0 when no
  /// reading has been drained yet. A fused group's drain time is shared
  /// evenly by its readings. latency_samples always equals processed:
  /// the histogram is updated in the same critical section as the processed
  /// tally, so a stats() snapshot never sees them diverge.
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  std::size_t latency_samples = 0;
  /// Global ESS fraction (ESS / particle count) and mean fused-group length
  /// (fused readings / fused groups, 0 while no group of >= 2 has formed),
  /// both recorded at the END of the last drain (before any
  /// drain: 1.0 and 0). Snapshotted into mu-guarded fields by the drain
  /// itself — stats() never reads the localizer (that would race an
  /// in-flight drain).
  double ess_fraction = 1.0;
  double fused_batch_len = 0.0;
};

/// Borrowed observability backends for a SessionManager; both optional and
/// both externally owned. Lifetime: the backends must outlive the manager,
/// and the registry must not be visited (exported) after the manager or its
/// pool is destroyed — the manager registers pull gauges whose callbacks
/// read manager and pool state.
struct ServiceObservability {
  obs::MetricsRegistry* metrics = nullptr;  ///< null = no metric mirroring
  obs::TraceSink* trace = nullptr;          ///< null = no stage spans
};

/// Multiplexes many independent MultiSourceLocalizer sessions over one
/// shared ThreadPool. ingest() is safe from any thread; drain()/drain(id)
/// may run concurrently with ingests (each drain processes the backlog
/// snapshot taken at its start) and with estimate() calls from other
/// threads. open/close are safe from any thread, but
/// close() must not race a drain of the SAME session it is closing — the
/// caller owns session lifecycle.
class SessionManager {
 public:
  using SessionId = std::uint64_t;

  /// `pool` is the shared worker pool (must outlive the manager). Every
  /// session's localizer borrows it, so inner weight-update parallelism
  /// collapses inline under drain tasks per the §5.6 nesting policy.
  /// `obs` optionally plugs in a metrics registry and a trace sink (see
  /// ServiceObservability for the lifetime contract).
  explicit SessionManager(ThreadPool& pool, ServiceObservability obs = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session (one surveillance area / tenant). `env` must outlive
  /// the session; `seed` fixes the session's randomness. Returns the new
  /// session's id (ids are never reused within a manager).
  SessionId open(const Environment& env, std::vector<Sensor> sensors, SessionConfig cfg,
                 std::uint64_t seed);

  /// Closes and destroys a session; false if the id is unknown (already
  /// closed). Pending queued readings are discarded.
  bool close(SessionId id);

  [[nodiscard]] std::size_t num_sessions() const;

  /// Validates and enqueues one timed reading. Thread-safe; cheap (no
  /// filter work happens here). Throws std::out_of_range on an unknown id —
  /// an unknown session is a caller bug, not a data fault.
  IngestStatus ingest(SessionId id, const SessionReading& reading);

  /// Drains every session's backlog: one TaskGroup task per session with
  /// pending readings, running concurrently on the shared pool. Returns the
  /// total number of readings drained. Rethrows the first exception any
  /// session's drain raised (after all drains retired).
  std::size_t drain_all();

  /// Drains one session inline on the calling thread.
  std::size_t drain(SessionId id);

  [[nodiscard]] SessionStats stats(SessionId id) const;

  /// Runs the mean-shift estimate on the session's current particle cloud.
  /// Thread-safe: it may run concurrently with ingest() and with drain_all()
  /// or drain() called from other threads. It holds the session's drain lock
  /// for the whole mean-shift, so it is serialized against drains of the
  /// same session, which wait behind it; other sessions keep draining.
  std::vector<SourceEstimate> estimate(SessionId id);

  /// The session's localizer, for diagnostics and tests. Do not call
  /// mutating operations while drains may run.
  [[nodiscard]] const MultiSourceLocalizer& localizer(SessionId id) const;

 private:
  struct Session;

  [[nodiscard]] std::shared_ptr<Session> find(SessionId id) const;
  std::size_t drain_session(Session& s);

  ThreadPool* pool_;
  obs::MetricsRegistry* metrics_;  ///< null = metrics mirroring off
  obs::TraceSink* trace_;          ///< null = stage tracing off
  mutable std::mutex mu_;  ///< guards sessions_ and next_id_
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_id_ = 1;
};

}  // namespace radloc
