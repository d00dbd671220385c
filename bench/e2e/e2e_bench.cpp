// End-to-end service benchmark (README.md has the definitions).
//
// Drives the public SessionManager API the way a deployment does. A
// generator thread offers the pre-generated feed — on its schedule (open
// loop) or one tick at a time (closed loop). A single server loop, this
// thread, answers the next due estimate() query, calls drain_all(), and
// otherwise blocks on a condition variable until the generator signals or
// the next query falls due; it never spins. With ThreadPool(3) that is 4
// threads.
//
// Every number is measured from outside the library: latencies from the
// schedule's due times, clocks around public calls, counters from public
// getters. --trace 1 runs the workload twice, untraced then traced, and
// reports the per-layer metrics; the trace's stage spans come from the
// library's own obs::TraceSink.
//
// After the timed phase the run is checked, untimed: two sessions' admitted
// feeds (a traced run: every session's) are replayed serially through a
// standalone MultiSourceLocalizer and must match the service bit for bit,
// and the service's accounting must add up. A failed check prints no
// metrics and exits 1.
//
//   e2e_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR] [--commit REV]
#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/matching.hpp"
#include "radloc/eval/stats.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/obs/trace.hpp"
#include "radloc/service/session_manager.hpp"
#include "radloc/simd/simd.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using radloc::SessionManager;
using SessionId = SessionManager::SessionId;

constexpr std::size_t kPoolThreads = 3;  // + generator + server loop = 4 threads
/// Set-up is built repeatedly, warm, for this long.
constexpr auto kSetupWindow = std::chrono::milliseconds(1000);
constexpr std::size_t kSetupMinBuilds = 4;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The generator and server sleep on timed waits; the default 50 us timer
/// slack would add that much to every wake-up and to every latency.
void tighten_timer_slack() {
#ifdef __linux__
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_estimates(const std::vector<radloc::SourceEstimate>& a,
                    const std::vector<radloc::SourceEstimate>& b) {
  return same_bits(std::span<const radloc::SourceEstimate>(a),
                   std::span<const radloc::SourceEstimate>(b));
}

/// One admitted reading the server has not yet seen applied.
struct Pending {
  std::size_t ordinal = 0;  ///< 1-based position among the session's admitted readings
  std::int64_t due_ns = 0;
};

/// One timed pass of a workload: set-up, the generator and server loop, and
/// everything they measured. The manager stays alive afterwards for the
/// accounting checks, the accuracy evaluation and the replay gate.
class Pass {
 public:
  Pass(const e2e::Workload& w, bool traced) : w_(w), traced_(traced) {
    // The gate replays the first and last sessions; a traced pass replays
    // every session, so the timed replay (core.process_us) covers as much
    // work as the traced run whose stage spans it is set against.
    gate_slot_.assign(w.sessions, kNotGated);
    for (std::size_t k = 0; k < w.sessions; ++k) {
      if (traced || k == 0 || k + 1 == w.sessions) {
        gate_slot_[k] = gated_.size();
        gated_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    gate_readings_.resize(gated_.size());
    gate_batches_.resize(gated_.size());
    gate_processed_.assign(gated_.size(), 0);
    pending_.resize(w.sessions);
    is_active_.assign(w.sessions, 0);
    admitted_.assign(w.sessions, 0);
    shed_.assign(w.sessions, 0);
    if (traced_) sink_ = std::make_unique<radloc::obs::TraceSink>(kTraceCapacity, 1);
  }

  ~Pass() {
    // The manager borrows the pool; it must go first.
    mgr_.reset();
    pool_.reset();
  }

  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Builds the pool, the manager and every session for the run. With
  /// `measure`, first times that build, repeated warm for kSetupWindow:
  /// setup_s is the fastest build after the first (cold) one. The shared
  /// host runs the building thread at one of two speeds about 1.6x apart,
  /// in stretches of up to seconds, so a single build, or the median of a
  /// window, reads one or the other; the fastest of a window's builds does
  /// not (README.md, "Noise"). The run uses the last build.
  void setup(bool measure) {
    if (measure) {
      std::vector<double> times;
      const auto start = Clock::now();
      while (times.size() < kSetupMinBuilds || Clock::now() - start < kSetupWindow) {
        times.push_back(build());
      }
      setup_s = *std::min_element(times.begin() + 1, times.end());
    } else {
      (void)build();
    }
    if (traced_) {
      estimator_ = std::make_unique<radloc::MeanShiftEstimator>(
          w_.scenario.env.bounds(), w_.config.localizer.meanshift, *pool_);
    }
  }

  /// The timed phase. Returns once every offered reading was applied (or
  /// refused) and every query answered.
  void run() {
    tighten_timer_slack();
    const radloc::ThreadPool::PoolStats pool0 = pool_->stats();
    const double cpu0 = cpu_seconds();
    // A short lead so both threads are parked before the first due time.
    t0_ = Clock::now() + std::chrono::milliseconds(20);
    std::thread gen([this] { generate(); });
    try {
      if (w_.loop == e2e::Loop::kOpen) {
        serve_open();
      } else {
        serve_closed();
      }
    } catch (...) {
      {
        const std::lock_guard lock(mu_);
        abort_ = true;
      }
      gen_cv_.notify_all();
      gen.join();
      throw;
    }
    gen.join();
    if (gen_error_ != nullptr) std::rethrow_exception(gen_error_);
    elapsed_s = std::chrono::duration<double>(t_end_ - t0_).count();
    cpu_s = cpu_seconds() - cpu0;
    rss_mb = peak_rss_mb();
    const radloc::ThreadPool::PoolStats pool1 = pool_->stats();
    pool_tasks = pool1.tasks_executed - pool0.tasks_executed;
    pool_steals = pool1.steals - pool0.steals;
  }

  [[nodiscard]] SessionManager& manager() { return *mgr_; }
  [[nodiscard]] SessionId id(std::size_t k) const { return ids_[k]; }
  [[nodiscard]] const std::vector<std::uint32_t>& gated() const { return gated_; }
  [[nodiscard]] const std::vector<radloc::SessionReading>& gate_readings(std::size_t g) const {
    return gate_readings_[g];
  }
  [[nodiscard]] const std::vector<std::size_t>& gate_batches(std::size_t g) const {
    return gate_batches_[g];
  }
  [[nodiscard]] std::size_t admitted(std::size_t k) const { return admitted_[k]; }
  [[nodiscard]] std::size_t shed(std::size_t k) const { return shed_[k]; }

  // --- measured (end to end) ---
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::vector<double> apply_ms;  ///< per applied reading: due -> covering drain_all return
  std::vector<double> query_ms;  ///< per query: due -> estimate() return
  std::vector<double> lag_ms;    ///< per offered reading: how late the generator ran
  /// Every estimate() answer of the run's second half (accuracy input).
  std::vector<std::vector<radloc::SourceEstimate>> late_estimates;
  std::size_t offered = 0;
  std::size_t admitted_total = 0;
  std::size_t shed_total = 0;            ///< refused or dropped by backpressure
  std::size_t malformed_rejected = 0;    ///< injected faults refused at ingest
  std::size_t misjudged = 0;             ///< valid refused as malformed, or the reverse
  std::size_t queries_answered = 0;

  // --- measured (trace only) ---
  std::vector<double> ingest_us;
  std::vector<double> drain_ms;  ///< drain_all calls that drained something
  std::size_t drained = 0;
  std::size_t queue_depth_max = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steals = 0;
  std::vector<double> estimate_ms;
  std::vector<double> query_wait_ms;
  std::vector<double> meanshift_ms;
  std::vector<double> modes;
  std::vector<double> gating_ms;
  double reported_estimates = 0.0;
  std::array<double, radloc::obs::kStageCount> stage_us{};
  std::uint64_t trace_dropped = 0;

 private:
  /// One build of pool + manager + every open(), replacing the previous
  /// one; returns its duration in seconds.
  double build() {
    mgr_.reset();
    pool_.reset();
    ids_.clear();
    const auto t0 = Clock::now();
    pool_ = std::make_unique<radloc::ThreadPool>(kPoolThreads);
    mgr_ = std::make_unique<SessionManager>(*pool_,
                                            radloc::ServiceObservability{nullptr, sink_.get()});
    for (std::size_t k = 0; k < w_.sessions; ++k) {
      ids_.push_back(
          mgr_->open(w_.scenario.env, w_.scenario.sensors, w_.config, w_.filter_seeds[k]));
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void generate() {
    tighten_timer_slack();
    try {
      if (w_.loop == e2e::Loop::kOpen) {
        generate_open();
      } else {
        generate_closed();
      }
    } catch (...) {
      gen_error_ = std::current_exception();
    }
    {
      const std::lock_guard lock(mu_);
      gen_done_ = true;
      signaled_ = true;
    }
    cv_.notify_all();
  }

  /// Offers events [begin, end) now, then wakes the server loop; `due_of`
  /// maps an event to its due time.
  template <typename DueOf>
  void offer(std::size_t begin, std::size_t end, Clock::time_point now, DueOf due_of) {
    for (std::size_t i = begin; i < end; ++i) {
      const e2e::Event& e = w_.feed.events[i];
      const std::int64_t due = due_of(e);
      lag_ms.push_back(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                               now - t0_).count() - due) * 1e-6);
      const auto ti = traced_ ? Clock::now() : Clock::time_point{};
      const radloc::IngestStatus st = mgr_->ingest(ids_[e.session], e.reading);
      if (traced_) ingest_us.push_back(ms_between(ti, Clock::now()) * 1e3);
      ++offered;
      switch (st) {
        case radloc::IngestStatus::kQueuedDroppedOldest:
          // The evicted reading is never applied, so its latency sample
          // never completes; run() admits only reject-newest backpressure.
          throw std::logic_error("ingest dropped a queued reading");
        case radloc::IngestStatus::kQueued:
          if (e.malformed) ++misjudged;
          ++admitted_total;
          publish(e.session, Pending{++admitted_[e.session], due});
          if (gate_slot_[e.session] != kNotGated) {
            gate_readings_[gate_slot_[e.session]].push_back(e.reading);
          }
          break;
        case radloc::IngestStatus::kRejectedMalformed:
          if (e.malformed) {
            ++malformed_rejected;
          } else {
            ++misjudged;
          }
          break;
        case radloc::IngestStatus::kRejectedFull:
          ++shed_[e.session];
          ++shed_total;
          break;
      }
    }
    {
      const std::lock_guard lock(mu_);
      signaled_ = true;
    }
    cv_.notify_one();
  }

  /// Hands one admitted reading to the server loop, right after its ingest
  /// returned, so the first drain that applies it also sees it pending.
  void publish(std::uint32_t session, Pending p) {
    const std::lock_guard lock(mu_);
    pending_[session].push_back(p);
    if (is_active_[session] == 0) {
      is_active_[session] = 1;
      active_.push_back(session);
    }
  }

  void generate_open() {
    const auto& ev = w_.feed.events;
    std::size_t i = 0;
    while (i < ev.size()) {
      const auto due = t0_ + std::chrono::nanoseconds(ev[i].due_ns);
      auto now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      std::size_t end = i;
      while (end < ev.size() && t0_ + std::chrono::nanoseconds(ev[end].due_ns) <= now) ++end;
      offer(i, end, now, [](const e2e::Event& e) { return e.due_ns; });
      i = end;
    }
  }

  void generate_closed() {
    for (std::size_t t = 0; t < w_.ticks; ++t) {
      Clock::time_point due;
      {
        std::unique_lock lock(mu_);
        gen_cv_.wait(lock, [&] { return released_ > t || abort_; });
        if (abort_) return;
        due = release_time_;
      }
      const std::int64_t due_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(due - t0_).count();
      offer(w_.feed.tick_begin[t], w_.feed.tick_begin[t + 1], Clock::now(),
            [due_ns](const e2e::Event&) { return due_ns; });
      {
        const std::lock_guard lock(mu_);
        ingested_ticks_ = t + 1;
      }
      cv_.notify_one();
    }
  }

  void serve_open() {
    const auto& qs = w_.feed.queries;
    std::size_t next_q = 0;
    for (;;) {
      bool done = false;
      {
        std::unique_lock lock(mu_);
        if (next_q < qs.size()) {
          const auto wake = t0_ + std::chrono::nanoseconds(qs[next_q].due_ns);
          cv_.wait_until(lock, wake, [&] { return signaled_; });
        } else {
          cv_.wait(lock, [&] { return signaled_; });
        }
        signaled_ = false;
        done = gen_done_;
      }
      if (done && gen_error_ != nullptr) break;  // run() rethrows it
      // One due query per round, then a drain: a server that has fallen
      // behind still applies readings between queries, instead of answering
      // its whole backlog of queries on filters that starve meanwhile.
      if (next_q < qs.size()) {
        const auto due = t0_ + std::chrono::nanoseconds(qs[next_q].due_ns);
        if (Clock::now() >= due) answer(qs[next_q++], due);
      }
      const bool idle = drain_and_cover();
      if (done && idle && next_q == qs.size()) break;
    }
    t_end_ = Clock::now();
  }

  void serve_closed() {
    const auto& qs = w_.feed.queries;
    std::size_t next_q = 0;
    std::this_thread::sleep_until(t0_);
    release(0);
    for (std::size_t t = 0; t < w_.ticks; ++t) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return ingested_ticks_ > t || gen_done_; });
        signaled_ = false;
      }
      (void)drain_and_cover();
      while (next_q < qs.size() && qs[next_q].tick == t) answer(qs[next_q++], Clock::now());
      if (t + 1 < w_.ticks) release(t + 1);
    }
    t_end_ = Clock::now();
  }

  void release(std::size_t tick) {
    {
      const std::lock_guard lock(mu_);
      released_ = tick + 1;
      release_time_ = Clock::now();
    }
    gen_cv_.notify_one();
  }

  void answer(const e2e::Query& q, Clock::time_point due) {
    const SessionId sid = ids_[q.session];
    const auto te0 = Clock::now();
    const std::vector<radloc::SourceEstimate> est = mgr_->estimate(sid);
    const auto te1 = Clock::now();
    query_ms.push_back(ms_between(due, te1));
    ++queries_answered;
    const bool second_half = w_.loop == e2e::Loop::kOpen
                                 ? static_cast<double>(q.due_ns) * 2e-9 >= w_.duration_s
                                 : q.tick * 2 >= w_.ticks;
    if (second_half) late_estimates.push_back(est);
    if (!traced_) return;
    const double est_ms = ms_between(te0, te1);
    estimate_ms.push_back(est_ms);
    query_wait_ms.push_back(ms_between(due, te0));
    // The same cloud through a standalone mean-shift: no drain runs between
    // the query and this copy (this thread is the only drainer).
    const radloc::FusionParticleFilter& f = mgr_->localizer(sid).filter();
    cloud_pos_.assign(f.positions().begin(), f.positions().end());
    cloud_str_.assign(f.strengths().begin(), f.strengths().end());
    cloud_w_.assign(f.weights().begin(), f.weights().end());
    const auto tm0 = Clock::now();
    const auto raw = estimator_->estimate(cloud_pos_, cloud_str_, cloud_w_);
    const double ms_ms = ms_between(tm0, Clock::now());
    meanshift_ms.push_back(ms_ms);
    modes.push_back(static_cast<double>(raw.size()));
    gating_ms.push_back(est_ms - ms_ms);
    reported_estimates += static_cast<double>(est.size());
  }

  /// drain_all, then records which admitted readings it made visible.
  /// Returns true when nothing admitted is still waiting to be applied.
  bool drain_and_cover() {
    std::vector<std::uint32_t> act;
    if (traced_) {
      {
        const std::lock_guard lock(mu_);
        act = active_;
      }
      for (const std::uint32_t s : act) {
        queue_depth_max = std::max(queue_depth_max, mgr_->stats(ids_[s]).queue_depth);
      }
    }
    const auto td0 = Clock::now();
    const std::size_t n = mgr_->drain_all();
    const auto td1 = Clock::now();
    if (traced_) {
      if (n > 0) {
        drain_ms.push_back(ms_between(td0, td1));
        drained += n;
      }
      for (const radloc::obs::TraceEvent& e : sink_->drain()) {
        stage_us[static_cast<std::size_t>(e.stage)] += e.duration_us;
      }
      trace_dropped = sink_->dropped();
    }
    // Snapshot after the drain. The generator publishes a reading right
    // after its ingest returns; a reading the drain took in that gap is
    // counted one round late. Readings not yet drained stay pending.
    {
      const std::lock_guard lock(mu_);
      act = active_;
    }
    std::vector<std::size_t> processed(act.size());
    for (std::size_t i = 0; i < act.size(); ++i) processed[i] = mgr_->stats(ids_[act[i]]).processed;
    // The replay gate needs the exact drain batches of its sessions.
    for (std::size_t g = 0; g < gated_.size(); ++g) {
      const std::size_t now_processed = mgr_->stats(ids_[gated_[g]]).processed;
      if (now_processed != gate_processed_[g]) {
        gate_processed_[g] = now_processed;
        gate_batches_[g].push_back(now_processed);
      }
    }
    const double t_ret =
        std::chrono::duration<double, std::milli>(td1 - t0_).count();
    const std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < act.size(); ++i) {
      std::deque<Pending>& dq = pending_[act[i]];
      while (!dq.empty() && dq.front().ordinal <= processed[i]) {
        apply_ms.push_back(t_ret - static_cast<double>(dq.front().due_ns) * 1e-6);
        dq.pop_front();
      }
    }
    std::erase_if(active_, [&](std::uint32_t s) {
      if (!pending_[s].empty()) return false;
      is_active_[s] = 0;
      return true;
    });
    return active_.empty();
  }

  const e2e::Workload& w_;
  const bool traced_;
  std::unique_ptr<radloc::obs::TraceSink> sink_;
  std::unique_ptr<radloc::ThreadPool> pool_;
  std::unique_ptr<SessionManager> mgr_;
  std::unique_ptr<radloc::MeanShiftEstimator> estimator_;  // trace only
  std::vector<SessionId> ids_;
  Clock::time_point t0_;
  Clock::time_point t_end_;

  // Generator-owned until join.
  std::vector<std::size_t> admitted_;
  std::vector<std::size_t> shed_;
  std::vector<std::vector<radloc::SessionReading>> gate_readings_;
  std::exception_ptr gen_error_;

  // Server-owned.
  static constexpr std::size_t kNotGated = static_cast<std::size_t>(-1);
  std::vector<std::uint32_t> gated_;          ///< sessions the replay gate checks
  std::vector<std::size_t> gate_slot_;        ///< per session: index into gated_, or kNotGated
  std::vector<std::vector<std::size_t>> gate_batches_;  ///< processed after each drain
  std::vector<std::size_t> gate_processed_;
  std::vector<radloc::Point2> cloud_pos_;
  std::vector<double> cloud_str_;
  std::vector<double> cloud_w_;

  // Shared, guarded by mu_.
  std::mutex mu_;
  std::condition_variable cv_;      ///< server waits: readings offered, or generator done
  std::condition_variable gen_cv_;  ///< closed-loop generator waits: next tick released
  bool signaled_ = false;
  bool gen_done_ = false;
  bool abort_ = false;
  std::vector<std::deque<Pending>> pending_;
  std::vector<std::uint32_t> active_;  ///< sessions with pending readings
  std::vector<char> is_active_;
  std::size_t released_ = 0;
  std::size_t ingested_ticks_ = 0;
  Clock::time_point release_time_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// The service's accounting must add up against what the generator saw.
void check_accounting(Pass& p, const e2e::Workload& w, Checks& c) {
  SessionManager& mgr = p.manager();
  std::vector<std::size_t> injected(w.sessions, 0);
  for (const e2e::Event& e : w.feed.events) {
    if (e.malformed) ++injected[e.session];
  }
  for (std::size_t k = 0; k < w.sessions; ++k) {
    const radloc::SessionStats st = mgr.stats(p.id(k));
    const std::string s = "session " + std::to_string(k) + ": ";
    c.expect(st.ingested == p.admitted(k), s + "ingested != admitted");
    c.expect(st.processed == st.ingested, s + "processed != admitted");
    c.expect(st.queue_depth == 0, s + "queue not empty at end");
    c.expect(st.rejected_malformed == injected[k], s + "rejected_malformed != injected");
    c.expect(st.rejected_full + st.dropped_oldest == p.shed(k), s + "shed count mismatch");
    c.expect(mgr.localizer(p.id(k)).iterations() == st.processed, s + "iterations != processed");
  }
  c.expect(p.malformed_rejected == w.feed.malformed, "not every injected reading was refused");
  c.expect(p.misjudged == 0, "ingest misjudged a reading");
  c.expect(p.apply_ms.size() == p.admitted_total, "applied readings != latency samples");
  c.expect(p.queries_answered == w.feed.queries.size(), "queries answered != scheduled");
  c.expect(p.offered == w.feed.events.size(), "readings offered != scheduled");
}

/// Replays each gated session's admitted feed, in the service's drain
/// batches, through a standalone localizer with the same seed and config.
/// `process_us` (optional) collects per-reading replay times.
void check_replay(Pass& p, const e2e::Workload& w, Checks& c, std::vector<double>* process_us) {
  for (std::size_t g = 0; g < p.gated().size(); ++g) {
    const std::uint32_t k = p.gated()[g];
    const std::string s = "replay of session " + std::to_string(k) + ": ";
    radloc::MultiSourceLocalizer ref(w.scenario.env, w.scenario.sensors, w.config.localizer,
                                     w.filter_seeds[k]);
    const auto& readings = p.gate_readings(g);
    std::vector<radloc::Measurement> batch;
    std::size_t begin = 0;
    for (const std::size_t end : p.gate_batches(g)) {
      if (end > readings.size() || end <= begin) {
        c.expect(false, s + "drain batches do not cover the admitted feed");
        return;
      }
      batch.clear();
      for (std::size_t i = begin; i < end; ++i) batch.push_back(readings[i].m);
      if (process_us == nullptr) {
        (void)ref.try_process_all(batch);
      } else {
        auto prev = Clock::now();
        (void)ref.try_process_all(batch, [&](std::size_t, radloc::ReadingFault) {
          const auto now = Clock::now();
          process_us->push_back(ms_between(prev, now) * 1e3);
          prev = now;
        });
      }
      begin = end;
    }
    c.expect(begin == readings.size(), s + "drain batches do not cover the admitted feed");
    const radloc::FusionParticleFilter& a = p.manager().localizer(p.id(k)).filter();
    const radloc::FusionParticleFilter& b = ref.filter();
    c.expect(same_bits(a.positions(), b.positions()) && same_bits(a.strengths(), b.strengths()) &&
                 same_bits(a.weights(), b.weights()),
             s + "particle state differs from serial replay");
    c.expect(same_estimates(p.manager().estimate(p.id(k)), ref.estimate()),
             s + "estimate() differs from serial replay");
  }
}

struct Accuracy {
  double loc_error_m = 0.0;
  double detect_rate = 0.0;
  double precision = 0.0;
};

/// match_estimates on every estimate the service answered in the second
/// half of the run plus every session's final estimate, pooled. Averaging
/// over the answers, not just the final state, is what keeps a workload with
/// a handful of sources steady from seed to seed.
Accuracy evaluate_accuracy(Pass& p, const e2e::Workload& w) {
  std::vector<std::vector<radloc::SourceEstimate>> answers = p.late_estimates;
  for (std::size_t k = 0; k < w.sessions; ++k) answers.push_back(p.manager().estimate(p.id(k)));
  double err_sum = 0.0;
  std::size_t matched = 0;
  std::size_t reported = 0;
  for (const auto& est : answers) {
    const radloc::MatchResult m = radloc::match_estimates(w.scenario.sources, est);
    for (const auto& e : m.error) {
      if (e) {
        err_sum += *e;
        ++matched;
      }
    }
    reported += est.size();
  }
  const auto truth = static_cast<double>(answers.size() * w.scenario.sources.size());
  Accuracy a;
  a.loc_error_m = matched > 0 ? err_sum / static_cast<double>(matched) : std::nan("");
  a.detect_rate = static_cast<double>(matched) / truth;
  a.precision = reported > 0 ? static_cast<double>(matched) / static_cast<double>(reported)
                             : std::nan("");
  return a;
}

double per_reading_us(const Pass& p) {
  return p.cpu_s * 1e6 / static_cast<double>(p.admitted_total);
}

std::vector<Metric> end_to_end_metrics(Pass& p, const e2e::Workload& w) {
  const Accuracy acc = evaluate_accuracy(p, w);
  const auto valid = static_cast<double>(p.offered - w.feed.malformed);
  return {
      {"setup_s", p.setup_s, "s"},
      {"apply_p50_ms", radloc::percentile(p.apply_ms, 0.50), "ms"},
      {"query_p50_ms", radloc::percentile(p.query_ms, 0.50), "ms"},
      {"readings_per_s", static_cast<double>(p.admitted_total) / p.elapsed_s, "1/s"},
      {"cpu_us_per_reading", per_reading_us(p), "us"},
      {"served_frac", (valid - static_cast<double>(p.shed_total)) / valid, "fraction"},
      {"loc_error_m", acc.loc_error_m, "m"},
      {"detect_rate", acc.detect_rate, "fraction"},
      {"precision", acc.precision, "fraction"},
      {"peak_rss_mb", p.rss_mb, "MiB"},
  };
}

/// Tails and sample counts: printed and recorded in the results file, but
/// not bounded — on a host with shared cores their run-to-run spread is
/// wider than any usable bound (README.md, "Bounds").
std::vector<Metric> tail_metrics(const Pass& p) {
  return {
      {"apply_p90_ms", radloc::percentile(p.apply_ms, 0.90), "ms"},
      {"apply_p99_ms", radloc::percentile(p.apply_ms, 0.99), "ms"},
      {"apply_samples", static_cast<double>(p.apply_ms.size()), "count"},
      {"query_p90_ms", radloc::percentile(p.query_ms, 0.90), "ms"},
      {"query_p99_ms", radloc::percentile(p.query_ms, 0.99), "ms"},
      {"query_samples", static_cast<double>(p.query_ms.size()), "count"},
      {"gen_lag_p99_ms", radloc::percentile(p.lag_ms, 0.99), "ms"},
  };
}

std::vector<Metric> per_layer_metrics(Pass& p, const e2e::Workload& w,
                                      const std::vector<double>& process_us,
                                      double untraced_cpu_us) {
  using radloc::obs::Stage;
  const auto stage = [&](Stage s) { return p.stage_us[static_cast<std::size_t>(s)]; };
  const auto drained = static_cast<double>(p.drained);
  const double validate = stage(Stage::kValidate) / drained;
  const double fusion = stage(Stage::kFusionQuery) / drained;
  const double resample = stage(Stage::kResample) / drained;
  const double weight_self = (stage(Stage::kWeightUpdate) - stage(Stage::kResample)) / drained;
  const double drain_self = (stage(Stage::kDrain) - stage(Stage::kValidate) -
                             stage(Stage::kFusionQuery) - stage(Stage::kWeightUpdate)) /
                            drained;
  const double drain_us_per_reading =
      std::accumulate(p.drain_ms.begin(), p.drain_ms.end(), 0.0) * 1e3 / drained;
  const double process_mean = mean(process_us);

  std::uint64_t scored = 0, iterations = 0, resamples = 0, fgroups = 0, freadings = 0;
  std::uint64_t lookups = 0, hits = 0;
  double ess = 0.0;
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < w.sessions; ++k) {
    const radloc::FusionParticleFilter& f = p.manager().localizer(p.id(k)).filter();
    scored += f.particles_scored();
    iterations += f.iteration();
    resamples += f.resamples_performed();
    fgroups += f.fused_groups();
    freadings += f.fused_readings();
    lookups += f.scoring_cache_lookups();
    hits += f.scoring_cache_hits();
    const radloc::SessionStats st = p.manager().stats(p.id(k));
    ess += st.ess_fraction;
    rejected += st.rejected_malformed;
  }
  const auto its = static_cast<double>(iterations);
  const double modes_sum = std::accumulate(p.modes.begin(), p.modes.end(), 0.0);

  return {
      {"service.ingest_us.p50", radloc::percentile(p.ingest_us, 0.50), "us"},
      {"service.ingest_us.p99", radloc::percentile(p.ingest_us, 0.99), "us"},
      {"service.drain_all_ms.p50", radloc::percentile(p.drain_ms, 0.50), "ms"},
      {"service.drain_all_ms.p99", radloc::percentile(p.drain_ms, 0.99), "ms"},
      {"service.readings_per_drain", drained / static_cast<double>(p.drain_ms.size()), "count"},
      {"service.drain_us_per_reading", drain_us_per_reading, "us"},
      {"service.overhead_us_per_reading", drain_us_per_reading - process_mean, "us"},
      {"service.queue_depth.max", static_cast<double>(p.queue_depth_max), "count"},
      {"service.drain_self_us", drain_self, "us"},
      {"pool.tasks", static_cast<double>(p.pool_tasks), "count"},
      {"pool.steals", static_cast<double>(p.pool_steals), "count"},
      {"pool.steal_frac",
       ratio(static_cast<double>(p.pool_steals), static_cast<double>(p.pool_tasks)), "fraction"},
      {"core.process_us.mean", process_mean, "us"},
      {"core.process_us.p99", radloc::percentile(process_us, 0.99), "us"},
      {"core.estimate_ms.p50", radloc::percentile(p.estimate_ms, 0.50), "ms"},
      {"core.estimate_ms.p99", radloc::percentile(p.estimate_ms, 0.99), "ms"},
      {"core.query_wait_ms.p50", radloc::percentile(p.query_wait_ms, 0.50), "ms"},
      {"core.gating_ms.mean", mean(p.gating_ms), "ms"},
      {"core.accept_ratio", ratio(p.reported_estimates, modes_sum), "fraction"},
      {"meanshift.estimate_ms.mean", mean(p.meanshift_ms), "ms"},
      {"meanshift.modes.mean", mean(p.modes), "count"},
      {"filter.particles_per_reading", static_cast<double>(scored) / its, "count"},
      {"filter.resample_frac", static_cast<double>(resamples) / its, "fraction"},
      {"filter.ess_fraction", ess / static_cast<double>(w.sessions), "fraction"},
      {"filter.fused_len", ratio(static_cast<double>(freadings), static_cast<double>(fgroups)),
       "count"},
      {"filter.cache_hit_rate", ratio(static_cast<double>(hits), static_cast<double>(lookups)),
       "fraction"},
      {"filter.validate_us", validate, "us"},
      {"filter.fusion_query_us", fusion, "us"},
      {"filter.weight_update_us", weight_self, "us"},
      {"filter.resample_us", resample, "us"},
      {"filter.stage_sum_us", validate + fusion + weight_self + resample, "us"},
      {"sensornet.rejected_malformed", static_cast<double>(rejected), "count"},
      {"trace.overhead_frac", per_reading_us(p) / untraced_cpu_us - 1.0, "fraction"},
      {"bench.gen_lag_p99_ms", radloc::percentile(p.lag_ms, 0.99), "ms"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--commit REV]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--out") {
        o.out_dir = v;
      } else if (a == "--commit") {
        o.commit = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Run header: everything that decides what the numbers mean.
std::string header_json(const Options& o, const e2e::Workload& w) {
  const radloc::SessionConfig& c = w.config;
  const radloc::FilterConfig& f = c.localizer.filter;
  std::string h = "{";
  h += "\"workload\": " + json_string(w.name);
  h += ", \"seed\": " + std::to_string(o.seed);
  h += ", \"seconds\": " + json_number(o.seconds);
  h += ", \"mode\": " + json_string(o.trace ? "trace" : "e2e");
  h += ", \"commit\": " + json_string(o.commit);
  h += ", \"compiler\": " + json_string(__VERSION__);
  h += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  h += ", \"threads\": " + std::to_string(kPoolThreads + 1);
  h += ", \"simd_active\": " +
       json_string(radloc::simd::tier_name(radloc::simd::active_tier()));
  h += ", \"simd_detected\": " +
       json_string(radloc::simd::tier_name(radloc::simd::detected_tier()));
  h += ", \"sessions\": " + std::to_string(w.sessions);
  h += ", \"ticks\": " + std::to_string(w.ticks);
  h += ", \"feed_fingerprint\": " + json_string(std::to_string(e2e::fingerprint(w)));
  h += ", \"config\": {";
  h += "\"num_particles\": " + std::to_string(f.num_particles);
  h += ", \"fusion_range\": " + json_number(f.fusion_range);
  h += ", \"ess_resample_threshold\": " + json_number(f.ess_resample_threshold);
  h += ", \"fused_batch_updates\": " + std::string(f.fused_batch_updates ? "true" : "false");
  h += ", \"scoring_cache_entries\": " + std::to_string(f.scoring_cache_entries);
  h += ", \"adaptive_budget\": " + std::string(f.adaptive_budget ? "true" : "false");
  h += ", \"use_known_obstacles\": " + std::string(f.use_known_obstacles ? "true" : "false");
  h += ", \"use_transmission_cache\": " +
       std::string(f.use_transmission_cache ? "true" : "false");
  h += ", \"detection_log_lr\": " + json_number(c.localizer.detection_log_lr);
  h += ", \"history_window\": " + std::to_string(c.localizer.history_window);
  h += ", \"meanshift_max_seeds\": " + std::to_string(c.localizer.meanshift.max_seeds);
  h += ", \"queue_capacity\": " + std::to_string(c.queue_capacity);
  h += ", \"backpressure\": " +
       json_string(c.backpressure == radloc::BackpressurePolicy::kRejectNewest ? "reject_newest"
                                                                               : "drop_oldest");
  h += "}}";
  return h;
}

int run(const Options& o) {
  const e2e::Workload w = e2e::make_workload(o.workload, o.seed, o.seconds);
  // A drop-oldest queue evicts admitted readings, which the apply-latency
  // accounting (one sample per admitted reading) cannot represent.
  if (w.config.backpressure != radloc::BackpressurePolicy::kRejectNewest) {
    throw std::runtime_error("the benchmark needs reject-newest backpressure");
  }
  Checks checks;
  std::vector<Metric> metrics;
  std::vector<Metric> tails;
  std::unique_ptr<Pass> pass;
  if (!o.trace) {
    pass = std::make_unique<Pass>(w, false);
    pass->setup(true);
    pass->run();
    check_accounting(*pass, w, checks);
    check_replay(*pass, w, checks, nullptr);
    metrics = end_to_end_metrics(*pass, w);
    tails = tail_metrics(*pass);
    for (const Metric& m : metrics) {
      if (m.name == "detect_rate") checks.expect(m.value > 0.0, "no session detected a source");
    }
  } else {
    double untraced_cpu_us = 0.0;
    {
      Pass ref(w, false);
      ref.setup(false);
      ref.run();
      check_accounting(ref, w, checks);
      untraced_cpu_us = per_reading_us(ref);
    }
    pass = std::make_unique<Pass>(w, true);
    pass->setup(false);
    pass->run();
    check_accounting(*pass, w, checks);
    std::vector<double> process_us;
    check_replay(*pass, w, checks, &process_us);
    checks.expect(pass->trace_dropped == 0, "trace ring overflowed");
    metrics = per_layer_metrics(*pass, w, process_us, untraced_cpu_us);
  }
  for (const Metric& m : metrics) checks.expect(std::isfinite(m.value), m.name + " has no value");

  const std::size_t attempted = pass->offered + w.feed.queries.size();
  const std::size_t failed = pass->shed_total + pass->misjudged +
                             (w.feed.queries.size() - pass->queries_answered);
  for (const std::string& f : checks.failures()) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/" + w.name + "-s" + std::to_string(o.seed) + "-" +
                             (o.trace ? "trace" : "e2e") + ".json";
    std::ofstream out(path);
    out << "{\"header\": " << header_json(o, w) << ",\n \"correct\": "
        << (checks.ok() ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ",\n \"metrics\": "
        << (checks.ok() ? metrics_json(metrics) : "{}")
        << ",\n \"tail_metrics\": " << (checks.ok() ? metrics_json(tails) : "{}") << "}\n";
  }
  if (!checks.ok()) {
    std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {}}\n",
                attempted, failed);
    return 1;
  }
  std::printf("# %s\n", header_json(o, w).c_str());
  for (const std::vector<Metric>* set : {&metrics, &tails}) {
    for (const Metric& m : *set) {
      std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              attempted, failed, metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
