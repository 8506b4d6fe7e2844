#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include <sched.h>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace dlinf {
namespace {

/// The pool whose worker loop runs on this thread, if any.
thread_local const ThreadPool* t_worker_of = nullptr;

/// Pins the calling thread to the `index`-th CPU (modulo their count) of
/// the ones the process may run on.
void PinToAllowedCpu(int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int skip = index % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

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
      PinToAllowedCpu(i);
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
  // Up to 4 blocks per worker for load balancing; never more blocks than
  // items, so count < num_threads degenerates to one index per block.
  const int64_t max_blocks =
      std::min<int64_t>(count, static_cast<int64_t>(workers_.size()) * 4);
  const int64_t block = (count + max_blocks - 1) / max_blocks;
  const int64_t num_blocks = (count + block - 1) / block;

  // Shared with the helper tasks, which may start after this call returned:
  // such a late helper claims nothing and so never touches `fn`.
  struct Call {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::atomic<bool> errored{false};
    std::mutex mu;  // Guards first_error; the caller sleeps on it.
    std::condition_variable all_done;
    std::exception_ptr first_error;
  };
  auto call = std::make_shared<Call>();
  // Claims and runs blocks until none is left. An exception in any block is
  // captured (first writer wins) and rethrown on the calling thread after
  // the barrier: it must not die in a worker (std::terminate) or be
  // silently swallowed. Blocks claimed after the capture skip their work.
  auto run_blocks = [call, &fn, count, block, num_blocks] {
    for (;;) {
      const int64_t b = call->next.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      if (!call->errored.load(std::memory_order_acquire)) {
        try {
          const int64_t end = std::min(count, (b + 1) * block);
          for (int64_t i = b * block; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(call->mu);
          if (!call->first_error) call->first_error = std::current_exception();
          call->errored.store(true, std::memory_order_release);
        }
      }
      if (call->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_blocks) {
        // Notify under the lock, so the caller cannot miss it between its
        // check and its sleep.
        std::lock_guard<std::mutex> lock(call->mu);
        call->all_done.notify_all();
      }
    }
  };
  if (num_blocks == 1) {
    // One block runs as one pool task: ParallelFor(1, fn) is how a caller
    // puts fn on a worker (where its own ParallelFor calls run inline).
    Submit(run_blocks);
  } else {
    // One helper per worker at most. A helper that finds itself on the
    // caller's CPU leaves the blocks to the caller rather than share the
    // CPU with it (workers are pinned one per CPU, see the constructor).
    const int caller_cpu = sched_getcpu();
    const int64_t helpers =
        std::min<int64_t>(num_blocks, static_cast<int64_t>(workers_.size()));
    for (int64_t h = 0; h < helpers; ++h) {
      Submit([run_blocks, caller_cpu] {
        if (caller_cpu < 0 || sched_getcpu() != caller_cpu) run_blocks();
      });
    }
    run_blocks();
  }
  // Every block is claimed; sleep until the ones workers started finish.
  {
    std::unique_lock<std::mutex> lock(call->mu);
    call->all_done.wait(lock, [&call, num_blocks] {
      return call->done.load(std::memory_order_acquire) == num_blocks;
    });
  }
  if (call->errored.load(std::memory_order_acquire)) {
    std::rethrow_exception(call->first_error);
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
