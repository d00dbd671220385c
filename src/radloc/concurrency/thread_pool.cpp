#include "radloc/concurrency/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace radloc {

namespace {
// The pool whose work the current thread is executing right now, if any.
// Set around every job body (worker loop, caller-owned chunks, stolen jobs)
// and checked by parallel_for to run nested calls inline. Per-thread, so no
// synchronization; a plain pointer, so pools can nest across distinct pool
// objects without confusion.
thread_local const ThreadPool* tls_active_pool = nullptr;

// RAII marker so every execution path (including early returns) restores the
// previous pool — a task may itself wait on a group and run its queued jobs.
class ActivePoolScope {
 public:
  explicit ActivePoolScope(const ThreadPool* pool) : prev_(tls_active_pool) {
    tls_active_pool = pool;
  }
  ActivePoolScope(const ActivePoolScope&) = delete;
  ActivePoolScope& operator=(const ActivePoolScope&) = delete;
  ~ActivePoolScope() { tls_active_pool = prev_; }

 private:
  const ThreadPool* prev_;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t max_fanout) {
  if (max_fanout > 0) {
    hw_threads_ = max_fanout;
  } else {
    const std::size_t hw = std::thread::hardware_concurrency();
    hw_threads_ = hw > 0 ? hw : num_threads;
  }
  const std::size_t extra = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_pool_work() const { return tls_active_pool == this; }

ThreadPool::PoolStats ThreadPool::stats() const {
  PoolStats out;
  {
    const std::lock_guard lock(mu_);
    out.queue_depth = queue_.size();
  }
  out.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  out.steals = steals_.load(std::memory_order_relaxed);
  return out;
}

void ThreadPool::execute(Job& job) {
  // A job that throws must not unwind a worker thread (std::terminate) and
  // must still retire on its Sync — a lost decrement would hang the wave's
  // waiter forever. Capture the exception; the wave's wait point rethrows.
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  std::exception_ptr err;
  {
    const ActivePoolScope scope(this);
    try {
      if (job.chunk != nullptr) {
        (*job.chunk)(job.begin, job.end);
      } else {
        job.owned();
      }
    } catch (...) {
      err = std::current_exception();
    }
  }
  bool done = false;
  {
    const std::lock_guard lock(mu_);
    if (err != nullptr && job.sync->error == nullptr) job.sync->error = err;
    done = (--job.sync->remaining == 0);
  }
  // Outside the lock: the waiter re-checks its predicate under the mutex, so
  // notifying unlocked is safe and avoids a pointless wake-then-block.
  if (done) cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(job);
  }
}

void ThreadPool::wait_for(Sync& sync) {
  std::exception_ptr err = wait_for_collect(sync);
  if (err != nullptr) std::rethrow_exception(err);
}

std::exception_ptr ThreadPool::wait_for_collect(Sync& sync) {
  std::unique_lock lock(mu_);
  // The first queued job of this wave (queue_.end() if none).
  const auto own_job = [this, &sync] {
    return std::find_if(queue_.begin(), queue_.end(),
                        [&sync](const Job& job) { return job.sync == &sync; });
  };
  while (sync.remaining > 0) {
    const auto it = own_job();
    if (it != queue_.end()) {
      // Steal: run one of the wave's queued jobs instead of idling. This is
      // what makes waiting deadlock-free — the jobs a waiter depends on are
      // either queued (it runs them) or already running on some thread (it
      // blocks until they retire). Another wave's job is never run here, so
      // a waiter may hold a lock that such a job takes.
      steals_.fetch_add(1, std::memory_order_relaxed);
      Job job = std::move(*it);
      queue_.erase(it);
      lock.unlock();
      execute(job);
      lock.lock();
      continue;
    }
    // Sleep, not spin, while only other waves' jobs are queued.
    cv_.wait(lock, [&] { return sync.remaining == 0 || own_job() != queue_.end(); });
  }
  // Hand the wave's first error to the caller and clear it so the Sync (a
  // reused TaskGroup's, say) starts the next wave clean.
  return std::exchange(sync.error, nullptr);
}

void ThreadPool::record_error(Sync& sync, std::exception_ptr err) {
  const std::lock_guard lock(mu_);
  if (sync.error == nullptr) sync.error = std::move(err);
}

void ThreadPool::TaskGroup::run(std::function<void()> fn) {
  ThreadPool& pool = *pool_;
  if (pool.workers_.empty()) {
    // No workers: execute inline immediately — the serial baseline. The
    // nesting marker still applies so inner parallel_for calls stay inline.
    // The exception contract is the same as the queued path: run() returns
    // normally, the first captured exception surfaces at wait().
    pool.tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    const ActivePoolScope scope(&pool);
    try {
      fn();
    } catch (...) {
      pool.record_error(sync_, std::current_exception());
    }
    return;
  }
  {
    const std::lock_guard lock(pool.mu_);
    Job job;
    job.owned = std::move(fn);
    job.sync = &sync_;
    ++sync_.remaining;
    pool.queue_.push_back(std::move(job));
  }
  pool.cv_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& chunk_fn) {
  if (n == 0) return;
  // Nesting / oversubscription guard: inside pool work, run the whole range
  // inline. Outer tasks already occupy the threads; fanning out here would
  // only queue-shuffle the same cores, and blocking for it could deadlock.
  // An exception propagates directly to the caller here — same observable
  // contract as the fanned-out path (rethrow at the parallel_for call site).
  if (in_pool_work()) {
    chunk_fn(0, n);
    return;
  }
  // Never fan out wider than the host's cores: on a machine that exposes
  // fewer CPUs than the pool has threads, extra chunks only buy context
  // switches. Results don't depend on the fan-out — chunks cover disjoint
  // index ranges whoever runs them.
  const std::size_t threads = std::min(num_threads(), hw_threads_);
  if (threads == 1 || n == 1) {
    chunk_fn(0, n);
    return;
  }

  const std::size_t chunks = std::min(threads, n);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;

  // Keep the first chunk for the calling thread; queue the rest.
  Sync sync;
  std::size_t begin = base + (rem > 0 ? 1 : 0);
  const std::size_t own_end = begin;
  {
    const std::lock_guard lock(mu_);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t len = base + (c < rem ? 1 : 0);
      Job job;
      job.chunk = &chunk_fn;
      job.begin = begin;
      job.end = begin + len;
      job.sync = &sync;
      ++sync.remaining;
      queue_.push_back(std::move(job));
      begin += len;
    }
  }
  cv_.notify_all();

  {
    const ActivePoolScope scope(this);
    try {
      chunk_fn(0, own_end);
    } catch (...) {
      // Must NOT unwind yet: the queued jobs borrow chunk_fn and sync from
      // this stack frame, so returning before they retire would hand the
      // workers dangling pointers. Record the error and fall through to the
      // wait; it rethrows once the wave has drained.
      record_error(sync, std::current_exception());
    }
  }

  // Help drain the queue instead of idling: when workers are slow to wake
  // (or the host exposes fewer cores than the pool has threads) the caller
  // executes the remaining chunks itself — only this wave's, never another
  // wave's job, so the caller may hold a lock across the call (see the
  // header note). Rethrows the wave's first error.
  wait_for(sync);
}

}  // namespace radloc
