#include "common/thread_pool.h"

#include <algorithm>

namespace cloudsurv {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity,
                       fault::FaultInjector* fault_injector)
    : queue_capacity_(std::max<size_t>(1, queue_capacity)),
      fault_injector_(fault_injector),
      queue_depth_gauge_(obs::Registry::Default().GetGauge(
          "cloudsurv_pool_queue_depth",
          "Queued-but-not-started tasks across all thread pools",
          "tasks")),
      tasks_total_(obs::Registry::Default().GetCounter(
          "cloudsurv_pool_tasks_total",
          "Tasks started by a worker across all thread pools", "tasks")),
      task_wait_us_(obs::Registry::Default().GetHistogram(
          "cloudsurv_pool_task_wait_us",
          "Time a task spent queued before a worker picked it up")),
      task_run_us_(obs::Registry::Default().GetHistogram(
          "cloudsurv_pool_task_run_us", "Task execution time")) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::PushLocked(std::function<void()> task) {
  queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
  queue_depth_gauge_->Add(1.0);
  queue_not_empty_.notify_one();
}

bool ThreadPool::Enqueue(std::function<void()> task) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_not_full_.wait(lock, [this]() {
    return shutdown_ || queue_.size() < queue_capacity_;
  });
  if (shutdown_) return false;
  PushLocked(std::move(task));
  return true;
}

bool ThreadPool::TryEnqueue(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || queue_.size() >= queue_capacity_) return false;
  PushLocked(std::move(task));
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock,
                 [this]() { return queue_.empty() && active_tasks_ == 0; });
}

void ThreadPool::Shutdown() {
  bool should_join = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only the caller that flips the flag joins; concurrent Shutdown()
    // calls return once the flag is set (the joiner drains everything).
    should_join = !shutdown_;
    shutdown_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (!should_join) return;
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_executed_;
}

uint64_t ThreadPool::tasks_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_failed_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(
          lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutdown_ with a drained queue: exit. (Queued tasks still run
        // to completion before workers leave.)
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
      // Counted when taken, so a reader right after a Submit() future
      // becomes ready already sees its task.
      ++tasks_executed_;
      tasks_total_->Increment();
      queue_depth_gauge_->Add(-1.0);
      queue_not_full_.notify_one();
    }
    if (fault_injector_ != nullptr) {
      // Only delay faults are meaningful here; the task body owns its
      // own failure semantics.
      fault::SleepFor(
          fault_injector_->Evaluate(fault::Site::kPoolTask).delay_us);
    }
    const auto started_at = std::chrono::steady_clock::now();
    task_wait_us_->Observe(
        std::chrono::duration<double, std::micro>(started_at -
                                                  task.enqueued_at)
            .count());
    bool failed = false;
    try {
      task.fn();
    } catch (...) {
      // Submit() tasks never reach here (packaged_task captures the
      // exception into the future); a throwing Enqueue() task is
      // recorded instead of taking the process down.
      failed = true;
    }
    task_run_us_->Observe(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - started_at)
                              .count());
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (failed) ++tasks_failed_;
      if (queue_.empty() && active_tasks_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace cloudsurv
