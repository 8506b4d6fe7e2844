// ThreadPool edge cases: constructor clamping, ParallelFor boundary ranges,
// and the documented CHECK-abort on negative ranges (check_death_test.cc
// style). The happy-path coverage lives in common_test.cc.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace dlinf {
namespace {

TEST(ThreadPoolEdgeTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolEdgeTest, NegativeThreadsClampsToOne) {
  ThreadPool pool(-7);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&sum](int64_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolEdgeTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&calls](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // The pool stays usable afterwards.
  pool.ParallelFor(5, [&calls](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 5);
}

TEST(ThreadPoolEdgeTest, ParallelForCountSmallerThanThreads) {
  // count < num_threads: every index must still run exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolEdgeTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<int64_t> seen{-1};
  pool.ParallelFor(1, [&](int64_t i) {
    calls.fetch_add(1);
    seen.store(i);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.load(), 0);
}

TEST(ThreadPoolEdgeTest, ParallelForReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(17);
    pool.ParallelFor(17, [&hits](int64_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) ASSERT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolEdgeTest, ParallelForWaitsOnlyForItsOwnBlocks) {
  // One worker is held by an unrelated task; ParallelFor must still return
  // once its own blocks finish on the other worker.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> held_done{false};
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    held_done.store(true);
  });
  std::atomic<int> calls{0};
  pool.ParallelFor(6, [&calls](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 6);
  EXPECT_FALSE(held_done.load());
  release.store(true);
  pool.Wait();
  EXPECT_TRUE(held_done.load());
}

TEST(ThreadPoolEdgeTest, ParallelForFromAWorkerRunsInline) {
  // On a one-worker pool, a worker that queued work behind itself and
  // waited would never finish; the nested call runs inline, in order.
  ThreadPool pool(1);
  std::vector<int64_t> order;
  std::thread::id worker;
  bool same_thread = true;
  pool.ParallelFor(1, [&](int64_t) {
    worker = std::this_thread::get_id();
    pool.ParallelFor(5, [&](int64_t i) {
      order.push_back(i);
      same_thread = same_thread && std::this_thread::get_id() == worker;
    });
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(same_thread);
}

/// Occupies every worker of `pool` until release() (or a deadline, so that
/// a ParallelFor that needs a worker ends instead of hanging the test).
class HeldWorkers {
 public:
  explicit HeldWorkers(ThreadPool* pool) : pool_(pool) {
    for (int i = 0; i < pool->num_threads(); ++i) {
      pool->Submit([this] {
        started_.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!released_.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      });
    }
    while (started_.load() < pool->num_threads()) std::this_thread::yield();
  }
  ~HeldWorkers() {
    release();
    pool_->Wait();
  }
  void release() { released_.store(true); }

 private:
  ThreadPool* pool_;
  std::atomic<int> started_{0};
  std::atomic<bool> released_{false};
};

TEST(ThreadPoolTest, CallerRunsBlocks) {
  // Every worker is busy elsewhere: the caller runs every block itself,
  // in index order, and returns without waiting for a worker.
  ThreadPool pool(2);
  HeldWorkers held(&pool);
  std::vector<int64_t> order;
  bool on_caller = true;
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(8, [&](int64_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPoolTest, ExceptionInTheCallersBlockIsRethrown) {
  ThreadPool pool(2);
  {
    HeldWorkers held(&pool);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.ParallelFor(6,
                                  [&](int64_t i) {
                                    ran.fetch_add(1);
                                    if (i == 2) {
                                      throw std::runtime_error("caller's");
                                    }
                                  }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 3);  // Blocks claimed after the throw skip.
  }
  // Workers and caller share the next range as usual.
  std::vector<std::atomic<int>> hits(40);
  pool.ParallelFor(40, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, NestedCallFromAWorkerStillRunsInline) {
  // A one-block range runs on a worker; a ParallelFor it makes on the same
  // pool runs inline there, in order, although three workers are free and
  // the caller now runs blocks of a longer range itself.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id outer;
  std::vector<int64_t> order;
  bool same_thread = true;
  pool.ParallelFor(1, [&](int64_t) {
    outer = std::this_thread::get_id();
    pool.ParallelFor(40, [&](int64_t i) {
      order.push_back(i);
      same_thread = same_thread && std::this_thread::get_id() == outer;
    });
  });
  EXPECT_NE(outer, caller);
  std::vector<int64_t> want(40);
  for (int64_t i = 0; i < 40; ++i) want[i] = i;
  EXPECT_EQ(order, want);
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPoolEdgeTest, SharedPoolHasAWorkerPerHardwareThread) {
  const int want =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(ThreadPool::Shared().num_threads(), want);
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
}

TEST(ThreadPoolDeathTest, ParallelForNegativeCountAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.ParallelFor(-1, [](int64_t) {});
      },
      "ParallelFor over a negative range");
}

TEST(ThreadPoolExceptionTest, ParallelForRethrowsFirstException) {
  // Regression: a throwing lambda used to die in the worker (std::terminate)
  // or be swallowed; the first exception must surface on the calling thread.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](int64_t i) {
                         if (i == 37) throw std::runtime_error("boom at 37");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolExceptionTest, ParallelForExceptionMessagePreserved) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(8, [](int64_t) { throw std::runtime_error("original"); });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "original");
  }
}

TEST(ThreadPoolExceptionTest, PoolStaysUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(16, [](int64_t) { throw 42; }), int);

  // Same pool, next call runs to completion: no wedged workers, no stale
  // error state.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&sum](int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPoolExceptionTest, LaterBlocksSkipWorkAfterFailure) {
  // Not a strict guarantee of *which* indexes run, only that iteration may
  // stop early: after the throw is observed, untouched blocks are skipped,
  // and the count of executed iterations never exceeds the range.
  ThreadPool pool(2);
  std::atomic<int64_t> executed{0};
  EXPECT_THROW(pool.ParallelFor(1000,
                                [&executed](int64_t i) {
                                  executed.fetch_add(1,
                                                     std::memory_order_relaxed);
                                  if (i == 0) throw std::runtime_error("stop");
                                }),
               std::runtime_error);
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 1000);
}

TEST(ThreadPoolMetricsTest, TaskCountersTrackSubmissions) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* submitted = registry.GetCounter("threadpool.tasks_submitted");
  obs::Counter* executed = registry.GetCounter("threadpool.tasks_executed");
  const int64_t submitted_before = submitted->value();
  const int64_t executed_before = executed->value();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.Submit([] {});
    pool.Wait();
  }
  EXPECT_EQ(submitted->value() - submitted_before, 10);
  EXPECT_EQ(executed->value() - executed_before, 10);
  EXPECT_GE(registry.GetHistogram("threadpool.task_seconds")->count(), 10);
}

}  // namespace
}  // namespace dlinf
