#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace dlinf {
namespace {

/// The pool whose worker loop runs on this thread, if any.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: workers must outlive every static that might still
  // run inference during exit.
  static ThreadPool* const pool = new ThreadPool(
      static_cast<int>(std::thread::hardware_concurrency()));
  return *pool;
}

ThreadPool::ThreadPool(int num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  tasks_submitted_ = registry.GetCounter("threadpool.tasks_submitted");
  tasks_executed_ = registry.GetCounter("threadpool.tasks_executed");
  queue_depth_ = registry.GetGauge("threadpool.queue_depth");
  task_seconds_ = registry.GetHistogram("threadpool.task_seconds");

  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      obs::prof::RegisterCurrentThread("pool." + std::to_string(i));
      t_worker_of = this;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    CHECK(!shutting_down_);
    tasks_.push(std::move(task));
    ++in_flight_;
    queue_depth_->Set(static_cast<double>(tasks_.size()));
  }
  tasks_submitted_->Add(1);
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  CHECK_GE(count, 0) << "ParallelFor over a negative range";
  if (count == 0) return;
  if (t_worker_of == this) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // An exception in any block is captured (first writer wins) and rethrown
  // on the calling thread after the barrier — it must not die in a worker
  // (std::terminate) or be silently swallowed. Later indexes may still run;
  // blocks that start after the capture skip their work.
  std::mutex call_mu;  // Guards first_error and blocks_left.
  std::condition_variable call_done;
  std::exception_ptr first_error;
  std::atomic<bool> errored{false};
  // Up to 4 blocks per worker for load balancing; never more blocks than
  // items, so count < num_threads degenerates to one index per block.
  const int64_t num_blocks =
      std::min<int64_t>(count, static_cast<int64_t>(workers_.size()) * 4);
  const int64_t block = (count + num_blocks - 1) / num_blocks;
  int64_t blocks_left = (count + block - 1) / block;
  for (int64_t begin = 0; begin < count; begin += block) {
    const int64_t end = std::min(count, begin + block);
    Submit([begin, end, &fn, &call_mu, &call_done, &first_error, &errored,
            &blocks_left] {
      if (!errored.load(std::memory_order_acquire)) {
        try {
          for (int64_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(call_mu);
          if (!first_error) first_error = std::current_exception();
          errored.store(true, std::memory_order_release);
        }
      }
      // Notify under the lock: the caller cannot see zero, return and
      // destroy these locals until this block has let go of them.
      std::lock_guard<std::mutex> lock(call_mu);
      if (--blocks_left == 0) call_done.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(call_mu);
    call_done.wait(lock, [&blocks_left] { return blocks_left == 0; });
  }
  if (errored.load(std::memory_order_acquire)) {
    std::rethrow_exception(first_error);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // Shutting down with no work left.
      task = std::move(tasks_.front());
      tasks_.pop();
      queue_depth_->Set(static_cast<double>(tasks_.size()));
    }
    if (obs::MetricsEnabled()) {
      Stopwatch watch;
      task();
      task_seconds_->Observe(watch.ElapsedSeconds());
    } else {
      task();
    }
    tasks_executed_->Add(1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace dlinf
