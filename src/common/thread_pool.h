#ifndef DLINF_COMMON_THREAD_POOL_H_
#define DLINF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dlinf {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Fixed-size worker pool.
///
/// The paper parallelizes stay-point extraction at trajectory level and
/// candidate-pool construction at station level (Section V-F); this pool is
/// the substrate for both. Tasks passed to Submit may not throw (library
/// code is exception-free); ParallelFor additionally guards against
/// throwing lambdas from application code by rethrowing the first exception
/// on the calling thread.
///
/// Instrumentation (see DESIGN.md §5): every pool feeds the global metrics
/// `threadpool.tasks_submitted` / `threadpool.tasks_executed` (counters),
/// `threadpool.queue_depth` (gauge) and `threadpool.task_seconds`
/// (histogram; its sum is total busy time, so utilisation =
/// sum / (wall-clock x num_threads)).
class ThreadPool {
 public:
  /// Starts `num_threads` workers. Zero or negative requests are clamped to
  /// one worker — the pool is always usable. Worker i is pinned to the i-th
  /// CPU (modulo their count) the process may run on: a sleeping worker
  /// that a caller wakes is otherwise often placed on the caller's own CPU
  /// and left there, so that a ParallelFor's blocks ran one after another
  /// on one CPU of a 4-vCPU VM (DESIGN.md §9 has the measurement).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool: one worker per hardware thread, started on
  /// first use and never torn down. Batched inference and per-window
  /// clustering run on it; their results do not depend on its size.
  static ThreadPool& Shared();

  /// Runs fn(i) for i in [0, count) and waits for its own blocks only, so
  /// concurrent callers do not wait on each other's work. Work is split
  /// into contiguous blocks (one index each when count < num_threads),
  /// claimed in index order from one atomic counter. The caller claims
  /// blocks too, from the first, alongside at most one helper task per
  /// worker; a helper that runs on the caller's CPU claims nothing (it
  /// would only share that CPU with the caller), and one that starts after
  /// every block is claimed finds nothing to do. So the caller never sleeps
  /// while a block is unclaimed: it then waits only for blocks that workers
  /// have started.
  /// A range of a single block runs as one pool task instead, so
  /// ParallelFor(1, fn) runs fn on a worker.
  /// Called from one of this pool's own workers, it runs every index inline
  /// in order instead (a worker that waited on the queue it serves could
  /// deadlock the pool).
  /// count == 0 is a no-op; a negative count is a programmer error (CHECK).
  /// If fn throws, the first exception is rethrown here (on the calling
  /// thread) after every started block finishes; blocks claimed after the
  /// throw skip their work, so treat the iteration as incomplete. The pool
  /// stays usable afterwards.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;
  bool shutting_down_ = false;

  // Global-registry metrics (shared across pools; pointers are stable).
  obs::Counter* tasks_submitted_;
  obs::Counter* tasks_executed_;
  obs::Gauge* queue_depth_;
  obs::Histogram* task_seconds_;
};

}  // namespace dlinf

#endif  // DLINF_COMMON_THREAD_POOL_H_
