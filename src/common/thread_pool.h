#ifndef CLOUDSURV_COMMON_THREAD_POOL_H_
#define CLOUDSURV_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace cloudsurv {

/// Fixed-size worker pool with a bounded task queue.
///
/// Producers block in Enqueue()/Submit() while the queue is full — the
/// queue bound is the engine's backpressure mechanism, so a slow scoring
/// tier throttles ingestion instead of letting work pile up unbounded.
/// TryEnqueue() is the non-blocking variant for callers that prefer to
/// shed load.
///
/// Exceptions: a task submitted through Submit() propagates anything it
/// throws to the caller through the returned future (std::future::get
/// rethrows). A task submitted through Enqueue() must not throw across
/// the task boundary; if it does the pool swallows the exception and
/// counts it in tasks_failed() rather than terminating the process.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1) over a queue holding at
  /// most `queue_capacity` pending tasks (at least 1). An optional
  /// fault injector is evaluated at `fault::Site::kPoolTask` before
  /// each task runs (injected task delays); nullptr disables the hook.
  ThreadPool(size_t num_threads, size_t queue_capacity,
             fault::FaultInjector* fault_injector = nullptr);

  /// Shuts down (drains the queue, joins all workers).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`, blocking while the queue is full. Returns false —
  /// without running the task — if the pool is (or becomes) shut down.
  bool Enqueue(std::function<void()> task);

  /// Non-blocking Enqueue: returns false immediately if the queue is
  /// full or the pool is shut down.
  bool TryEnqueue(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result (blocking
  /// while the queue is full, like Enqueue). If the pool is shut down
  /// the future's get() throws std::runtime_error; if the callable
  /// throws, get() rethrows that exception.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    const bool accepted = Enqueue([task]() { (*task)(); });
    if (!accepted) {
      // Surface the rejection through the future so callers have a
      // single error path.
      std::promise<R> broken;
      future = broken.get_future();
      broken.set_exception(std::make_exception_ptr(
          std::runtime_error("ThreadPool is shut down")));
    }
    return future;
  }

  /// Blocks until every task enqueued so far has finished. New tasks may
  /// still be enqueued afterwards.
  void Wait();

  /// Stops accepting tasks, drains the queue and joins the workers.
  /// Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }

  /// Current number of queued-but-not-started tasks.
  size_t queue_depth() const;

  /// Tasks a worker has taken from the queue (including ones that threw
  /// or are still running), counted before the task body runs.
  uint64_t tasks_executed() const;

  /// Tasks whose exception was swallowed at the task boundary.
  uint64_t tasks_failed() const;

 private:
  /// A queued task plus its enqueue instant (feeds the wait-time
  /// histogram when the task is picked up).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void WorkerLoop();
  void PushLocked(std::function<void()> task);

  const size_t queue_capacity_;
  /// Optional fault hook (see docs/operations.md); nullptr = no-op.
  fault::FaultInjector* const fault_injector_;
  /// Process-wide pool metrics (shared by every pool in the process —
  /// see docs/observability.md). Resolved once at construction so the
  /// worker loop never touches the registry mutex.
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* tasks_total_;
  obs::Histogram* task_wait_us_;
  obs::Histogram* task_run_us_;
  mutable std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::condition_variable all_idle_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> threads_;
  size_t active_tasks_ = 0;
  uint64_t tasks_executed_ = 0;
  uint64_t tasks_failed_ = 0;
  bool shutdown_ = false;
};

}  // namespace cloudsurv

#endif  // CLOUDSURV_COMMON_THREAD_POOL_H_
