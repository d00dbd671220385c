// Fixed-size thread pool with a chunked parallel_for and a task group.
//
// The paper's Table I shows the algorithm's concurrency (mostly mean-shift
// seeds) scaling to 24 cores. radloc funnels all parallelism through this
// pool so thread count is an explicit experiment parameter.
//
// Two levels of parallelism share one pool (DESIGN.md §5.6):
//
//   outer  TaskGroup::run       trials (run_experiment), session drains
//                               (SessionManager::drain_all)
//   inner  for_each_index       mean-shift ascents and support chunks,
//                               self-scheduled over parallel_for's lanes
//
// A filter reading never fans out: it runs on the thread that applies it.
//
// Nesting policy: a parallel_for issued from a thread that is already
// executing pool work (a worker running a task, or a caller running its own
// chunk) runs inline on that thread instead of fanning out. This is both the
// deadlock guard — pool threads never block waiting on pool threads — and
// the oversubscription guard: N outer trials never explode into N x M inner
// chunks. Threads that do wait (TaskGroup::wait, parallel_for's caller) run
// their own wave's queued jobs instead of idling, and sleep while only other
// waves' jobs are queued: a waiter's jobs are either queued (it runs them)
// or already running, so a waiter can never deadlock the pool either. Never
// running another wave's job lets a caller hold a lock across the wait,
// which a foreign job could otherwise take again on the same thread
// (SessionManager::estimate holds a session's drain_mu across mean-shift,
// and that session's drain task takes it too). Which thread runs a chunk or
// an index never affects results — chunks cover disjoint index ranges, each
// index writes its own slot, and reductions stay serial in index order.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace radloc {

class ThreadPool {
 public:
  /// `num_threads` == 1 (or 0) means run inline on the caller with no worker
  /// threads at all — the serial baseline for scaling experiments.
  ///
  /// parallel_for never fans out wider than the host's core count (extra
  /// chunks on an oversubscribed host only buy context switches); pass
  /// `max_fanout` > 0 to override that cap, e.g. to exercise the dispatch
  /// machinery in tests regardless of host.
  explicit ThreadPool(std::size_t num_threads, std::size_t max_fanout = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs chunk_fn(begin, end) over contiguous chunks covering [0, n), one
  /// chunk per thread; blocks until all chunks finish. Called from inside
  /// pool work it runs inline on the calling thread (see the nesting policy
  /// above).
  ///
  /// Exception safety: a throwing chunk never escapes a worker thread (which
  /// would std::terminate the process). The FIRST exception of the wave is
  /// captured; the remaining chunks still run (one failure does not cancel
  /// the wave — chunks are independent by contract), and the exception is
  /// rethrown here, at the call site, once every chunk has retired. The pool
  /// stays fully usable afterwards.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& chunk_fn);

  /// Runs fn(i) for i in [0, n); blocks until all iterations finish.
  /// Self-scheduling: parallel_for fans out min(n, num_threads()) lanes
  /// (with its fan-out cap, caller lane and nesting rule), and each lane
  /// claims the next unclaimed index until none is left, so iterations of
  /// very different cost (mean-shift ascents) still keep every thread busy.
  /// Which lane runs an index is timing-dependent; fn must write only
  /// per-index state. Inside pool work the one inline lane runs 0..n-1 in
  /// order.
  ///
  /// Exception safety: a throwing fn(i) ends only iteration i. Its lane
  /// keeps claiming, every other index still runs exactly once, and the
  /// first exception caught is rethrown here once every lane has retired.
  template <typename Fn>
  void for_each_index(std::size_t n, Fn&& fn) {
    // Lanes share one claim state, captured by a single reference so the
    // std::function parallel_for takes holds it without allocating.
    struct Claims {
      std::size_t n;
      Fn& fn;
      std::atomic<std::size_t> next{0};
      std::atomic<bool> failed{false};
      std::exception_ptr error{};  // written once, by the lane that set `failed`
    } claims{n, fn};
    parallel_for(std::min(n, num_threads()), [&claims](std::size_t, std::size_t) {
      for (std::size_t i = claims.next++; i < claims.n; i = claims.next++) {
        try {
          claims.fn(i);
        } catch (...) {
          if (!claims.failed.exchange(true)) claims.error = std::current_exception();
        }
      }
    });
    // parallel_for's return orders every lane's writes before this read.
    if (claims.error != nullptr) std::rethrow_exception(claims.error);
  }

  /// True when the calling thread is currently executing work scheduled on
  /// THIS pool (a worker running a job, or a caller running its own chunk /
  /// a stolen job). parallel_for uses this to detect nesting.
  [[nodiscard]] bool in_pool_work() const;

  /// Point-in-time pool telemetry (the observability layer surfaces these
  /// through callback gauges — see service/session_manager.cpp).
  ///   queue_depth     jobs enqueued but not yet picked up
  ///   tasks_executed  jobs retired through the queue machinery, including
  ///                   TaskGroup::run's inline fallback on a workerless
  ///                   pool (caller-owned parallel_for chunks are not jobs)
  ///   steals          of those, jobs executed by a WAITING thread (a
  ///                   TaskGroup/parallel_for waiter running its own
  ///                   wave's queued jobs instead of idling) rather than a
  ///                   pool worker
  struct PoolStats {
    std::size_t queue_depth = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
  };
  [[nodiscard]] PoolStats stats() const;

 private:
  /// Completion state for one wave of jobs (one parallel_for call or one
  /// TaskGroup). Guarded by the owning pool's mutex; waiters block on the
  /// pool-wide condition variable. `error` holds the first exception thrown
  /// by any job of the wave, to be rethrown at the wave's wait point.
  struct Sync {
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  /// A queued unit of work: either an owned closure (TaskGroup submission)
  /// or a borrowed chunk function + index range (parallel_for, whose caller
  /// outlives the wave by construction).
  struct Job {
    std::function<void()> owned;
    const std::function<void(std::size_t, std::size_t)>* chunk = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    Sync* sync = nullptr;
  };

 public:
  /// Non-blocking task submission: run() enqueues a task on the pool and
  /// returns immediately; wait() (and the destructor) blocks until every
  /// submitted task finished — running the group's own queued tasks while
  /// it waits, so a group waiting inside pool work can never stall the
  /// pool. On a pool with no workers (num_threads <= 1) run() executes the
  /// task inline on the caller, preserving the serial baseline.
  ///
  /// Exception safety: a throwing task never escapes a worker (or run(), on
  /// the inline path). The group's first exception is captured and rethrown
  /// by wait(), after every submitted task retired; the other tasks still
  /// run and the group/pool stay usable. The destructor waits but swallows
  /// an unobserved exception (destructors must not throw) — call wait() to
  /// observe failures.
  ///
  /// A TaskGroup is owned by one submitting thread: run()/wait() are not
  /// themselves thread-safe (the tasks, of course, run concurrently).
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    ~TaskGroup() {
      // Wait without rethrowing: a throwing destructor would terminate.
      pool_->wait_for_collect(sync_);
    }

    void run(std::function<void()> fn);
    void wait() { pool_->wait_for(sync_); }

   private:
    ThreadPool* pool_;
    Sync sync_;
  };

 private:
  void worker_loop();
  /// Runs the job with the nesting marker set, then retires it on its Sync.
  /// A throwing job body is caught and recorded as the Sync's first error.
  void execute(Job& job);
  /// Blocks until sync.remaining == 0, executing the wave's queued jobs
  /// while any are available (work-stealing wait); rethrows the wave's
  /// captured exception.
  void wait_for(Sync& sync);
  /// wait_for, but returns the captured exception (cleared from the Sync)
  /// instead of throwing — the destructor-safe variant.
  std::exception_ptr wait_for_collect(Sync& sync);
  /// Records `err` as sync's first error (first writer wins). Thread-safe.
  void record_error(Sync& sync, std::exception_ptr err);

  std::vector<std::thread> workers_;
  std::size_t hw_threads_ = 1;  ///< host core count; caps parallel_for fan-out
  mutable std::mutex mu_;  ///< mutable: const stats() reads the queue depth
  /// One condition variable for every event: job enqueued, a Sync reaching
  /// zero, shutdown. Waiters re-check their own predicate; the queue only
  /// transitions empty -> non-empty under notify_all, so no wakeup is lost.
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  // Telemetry tallies (see PoolStats). Relaxed: approximate mid-wave reads
  // are fine for monitoring; totals are exact once the pool is quiescent.
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace radloc
