#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"

namespace radloc {
namespace {

TEST(ThreadPool, SerialModeRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.for_each_index(100, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, ZeroThreadsBehavesLikeOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int count = 0;
  pool.for_each_index(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 10);
}

// The sweep constructs pools with max_fanout == thread count so the queued
// dispatch path is exercised even on hosts with fewer cores than threads.
class ThreadPoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolSweep, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(GetParam(), GetParam());
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  pool.for_each_index(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ThreadPoolSweep, ParallelSumMatchesSerial) {
  ThreadPool pool(GetParam(), GetParam());
  constexpr std::size_t n = 10000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.5;

  std::atomic<double> parallel_sum{0.0};
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    double local = 0.0;
    for (std::size_t i = begin; i < end; ++i) local += data[i];
    double expected = parallel_sum.load();
    while (!parallel_sum.compare_exchange_weak(expected, expected + local)) {
    }
  });
  const double serial = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_DOUBLE_EQ(parallel_sum.load(), serial);
}

TEST_P(ThreadPoolSweep, ReusableAcrossManyCalls) {
  ThreadPool pool(GetParam(), GetParam());
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.for_each_index(64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolSweep, ::testing::Values(1u, 2u, 4u, 8u));

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRunsOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t, std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ChunksCoverRangeWithoutOverlap) {
  ThreadPool pool(3, 3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t cursor = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, cursor);
    EXPECT_GT(e, b);
    cursor = e;
  }
  EXPECT_EQ(cursor, 100u);
}

TEST(ThreadPool, ForEachIndexClaimsPastABlockedIndex) {
  // Index 0 waits until every other index has run. Lanes claim indices one
  // at a time, so the other lanes run all 63; with one contiguous chunk per
  // thread, index 0's chunk-mates would wait behind it and the wait would
  // time out.
  ThreadPool pool(4, 4);
  constexpr std::size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others = 0;
  bool released = false;
  pool.for_each_index(n, [&](std::size_t i) {
    hits[i].fetch_add(1);
    std::unique_lock lock(mu);
    if (i == 0) {
      released = cv.wait_for(lock, std::chrono::seconds(10), [&] { return others == n - 1; });
    } else if (++others == n - 1) {
      cv.notify_all();
    }
  });
  EXPECT_TRUE(released);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskGroup, RunsEveryTask) {
  ThreadPool pool(4, 4);
  constexpr std::size_t n = 200;
  std::vector<std::atomic<int>> hits(n);
  {
    ThreadPool::TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i) {
      group.run([&hits, i] { hits[i].fetch_add(1); });
    }
    group.wait();
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskGroup, DestructorWaits) {
  ThreadPool pool(4, 4);
  std::atomic<int> count{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) group.run([&count] { count.fetch_add(1); });
    // No explicit wait: ~TaskGroup must block until every task ran.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskGroup, SerialPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 5; ++i) {
    group.run([&ran_on] { ran_on.push_back(std::this_thread::get_id()); });
  }
  group.wait();
  ASSERT_EQ(ran_on.size(), 5u);
  for (const auto id : ran_on) EXPECT_EQ(id, caller);
}

TEST(TaskGroup, InPoolWorkVisibleInsideTasks) {
  ThreadPool pool(2, 2);
  EXPECT_FALSE(pool.in_pool_work());
  std::atomic<int> inside{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([&] {
      if (pool.in_pool_work()) inside.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(pool.in_pool_work());
}

// The nesting contract: a parallel_for issued from inside pool work runs
// the whole range inline on that worker instead of re-entering the queue —
// no deadlock, no oversubscription, every index exactly once.
TEST(TaskGroup, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4, 4);
  constexpr std::size_t tasks = 16;
  constexpr std::size_t inner = 1000;
  std::vector<std::atomic<int>> hits(tasks * inner);
  ThreadPool::TaskGroup group(pool);
  for (std::size_t t = 0; t < tasks; ++t) {
    group.run([&, t] {
      const auto me = std::this_thread::get_id();
      pool.parallel_for(inner, [&, t, me](std::size_t begin, std::size_t end) {
        EXPECT_EQ(std::this_thread::get_id(), me);
        for (std::size_t i = begin; i < end; ++i) hits[t * inner + i].fetch_add(1);
      });
    });
  }
  group.wait();
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskGroup, NestedForEachIndexRunsInOrderOnTheCallingThread) {
  // Inside pool work for_each_index has one inline lane: it claims every
  // index, in order, on the task's own thread.
  ThreadPool pool(4, 4);
  constexpr std::size_t tasks = 8;
  constexpr std::size_t inner = 100;
  std::vector<std::vector<std::size_t>> order(tasks);
  std::vector<int> on_task_thread(tasks, 0);
  ThreadPool::TaskGroup group(pool);
  for (std::size_t t = 0; t < tasks; ++t) {
    group.run([&, t] {
      const auto me = std::this_thread::get_id();
      bool same = true;
      pool.for_each_index(inner, [&](std::size_t i) {
        order[t].push_back(i);
        same = same && std::this_thread::get_id() == me;
      });
      on_task_thread[t] = same ? 1 : 0;
    });
  }
  group.wait();
  std::vector<std::size_t> expected(inner);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  for (std::size_t t = 0; t < tasks; ++t) {
    EXPECT_EQ(order[t], expected) << t;
    EXPECT_EQ(on_task_thread[t], 1) << t;
  }
}

TEST(TaskGroup, ManyMoreTasksThanWorkers) {
  // wait() must make progress by stealing queued tasks, not just blocking.
  ThreadPool pool(2, 2);
  std::atomic<int> count{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 500; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 500);
}

TEST(TaskGroup, GroupReusableAfterWait) {
  ThreadPool pool(3, 3);
  std::atomic<int> count{0};
  ThreadPool::TaskGroup group(pool);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 32; ++i) group.run([&count] { count.fetch_add(1); });
    group.wait();
    ASSERT_EQ(count.load(), 32 * (round + 1));
  }
}

// ---------------------------------------------------------------------------
// Exception propagation (DESIGN.md §5.6/§5.8): an exception thrown inside a
// parallel_for chunk or TaskGroup task must not escape a worker thread (that
// would std::terminate the process). The pool captures the FIRST exception of
// a wave and rethrows it at the parallel_for return / TaskGroup::wait() call
// site; the remaining jobs of the wave still run and the pool stays usable.
// Before the fix these tests died with "terminate called after throwing ...".

TEST(ThreadPoolException, ParallelForRethrowsWorkerChunkException) {
  ThreadPool pool(4, 4);
  EXPECT_THROW(
      pool.for_each_index(256,
                          [](std::size_t i) {
                            if (i == 200) throw std::runtime_error("chunk failed");
                          }),
      std::runtime_error);
  // The pool must survive a throwing wave and run later work normally.
  std::atomic<int> count{0};
  pool.for_each_index(128, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolException, ParallelForCallerChunkExceptionStillRetiresQueuedChunks) {
  // The caller runs chunk [0, k) itself; a throw there must not unwind past
  // the queued chunks — they borrow the chunk functor and Sync off this
  // stack frame, so returning early would be a use-after-free for the
  // workers. Every surviving index must still run exactly once.
  ThreadPool pool(4, 4);
  constexpr std::size_t n = 4000;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(pool.parallel_for(n,
                                 [&](std::size_t begin, std::size_t end) {
                                   if (begin == 0) throw std::runtime_error("caller chunk");
                                   for (std::size_t i = begin; i < end; ++i)
                                     hits[i].fetch_add(1);
                                 }),
               std::runtime_error);
  for (std::size_t i = 1000; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolException, ForEachIndexThrowEndsOnlyItsOwnIteration) {
  // Every fifth index throws. Each ends only its own iteration: its lane
  // keeps claiming, every index runs exactly once, one of the thrown
  // exceptions is rethrown at the call, and the pool runs the next call.
  ThreadPool pool(4, 4);
  constexpr std::size_t n = 256;
  std::vector<std::atomic<int>> hits(n);
  try {
    pool.for_each_index(n, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i % 5 == 2) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::stoul(e.what()) % 5, 2u) << e.what();
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  std::atomic<int> count{0};
  pool.for_each_index(n, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(n));
}

TEST(ThreadPoolException, ForEachIndexOnOneLaneRethrowsTheFirstAfterEveryIndex) {
  // One lane (a serial pool) claims 0..n-1 in order: indices 2 and 5 throw,
  // the rest still run, and the first exception is the one rethrown.
  ThreadPool pool(1);
  std::vector<int> ran;
  try {
    pool.for_each_index(8, [&](std::size_t i) {
      ran.push_back(static_cast<int>(i));
      if (i == 2 || i == 5) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolException, ParallelForSerialPoolPropagatesInline) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.for_each_index(
                   8, [](std::size_t i) { (void)i; throw std::logic_error("serial"); }),
               std::logic_error);
  int count = 0;
  pool.for_each_index(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 8);
}

TEST(ThreadPoolException, TaskGroupWaitRethrowsFirstTaskException) {
  ThreadPool pool(4, 4);
  std::atomic<int> ran{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.run([&ran, i] {
      if (i == 13) throw std::runtime_error("task 13");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // Every non-throwing task still ran: one failure doesn't cancel the wave.
  EXPECT_EQ(ran.load(), 63);
  // Group and pool stay usable after the rethrow.
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolException, TaskGroupSerialPoolRethrowsAtWaitNotRun) {
  // Inline execution (no workers) must keep the contract: run() returns
  // normally, the captured exception surfaces at wait().
  ThreadPool pool(1);
  ThreadPool::TaskGroup group(pool);
  EXPECT_NO_THROW(group.run([] { throw std::runtime_error("inline task"); }));
  EXPECT_THROW(group.wait(), std::runtime_error);
  int ran = 0;
  group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolException, TaskGroupDestructorSwallowsUnobservedException) {
  // ~TaskGroup waits but must not rethrow (throwing destructors terminate).
  ThreadPool pool(2, 2);
  {
    ThreadPool::TaskGroup group(pool);
    group.run([] { throw std::runtime_error("unobserved"); });
  }
  std::atomic<int> count{0};
  pool.for_each_index(32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolException, NestedParallelForExceptionReachesGroupWait) {
  // A task's inline nested parallel_for throws -> the task throws -> the
  // group captures it and wait() rethrows.
  ThreadPool pool(4, 4);
  ThreadPool::TaskGroup group(pool);
  group.run([&] {
    pool.for_each_index(100, [](std::size_t i) {
      if (i == 50) throw std::runtime_error("nested");
    });
  });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPoolException, ExceptionTypePreserved) {
  ThreadPool pool(4, 4);
  try {
    pool.for_each_index(64, [](std::size_t i) {
      if (i == 32) throw std::out_of_range("index 32 rejected");
    });
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "index 32 rejected");
  }
}

TEST(TaskGroup, ParallelForFromCallerWhileGroupPending) {
  // An outer serial caller may interleave its own parallel_for with a
  // pending TaskGroup on the same pool; both must complete.
  ThreadPool pool(4, 4);
  std::atomic<int> task_count{0};
  std::atomic<int> index_count{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) group.run([&task_count] { task_count.fetch_add(1); });
  pool.for_each_index(300, [&](std::size_t) { index_count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(task_count.load(), 50);
  EXPECT_EQ(index_count.load(), 300);
}

}  // namespace
}  // namespace radloc
