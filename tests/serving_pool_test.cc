#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace cloudsurv {
namespace {

using namespace std::chrono_literals;

/// Lets a test hold the pool's only worker hostage until released.
class Gate {
 public:
  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this]() { return entered_; });
  }
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    entered_cv_.notify_all();
    released_cv_.wait(lock, [this]() { return released_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(ThreadPoolTest, RunsSubmittedTasksAndWaits) {
  ThreadPool pool(3, 16);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Enqueue([&counter]() { ++counter; }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.tasks_executed(), 50u);
  EXPECT_EQ(pool.tasks_failed(), 0u);
}

TEST(ThreadPoolTest, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2, 4);
  auto future = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, CountsATaskBeforeItsFutureIsReady) {
  // A task is counted when a worker takes it, so its own body already
  // sees it, and a reader right after future.get() never misses it.
  obs::Counter* pool_tasks = obs::Registry::Default().GetCounter(
      "cloudsurv_pool_tasks_total",
      "Tasks started by a worker across all thread pools", "tasks");
  ThreadPool pool(2, 4);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t total_before = pool_tasks->Value();
    auto future = pool.Submit([&pool]() { return pool.tasks_executed(); });
    EXPECT_EQ(future.get(), i + 1);
    EXPECT_EQ(pool_tasks->Value() - total_before, 1u);
    EXPECT_EQ(pool.tasks_executed(), i + 1);
  }
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressure) {
  ThreadPool pool(1, 2);
  Gate gate;
  // Occupy the only worker...
  ASSERT_TRUE(pool.Enqueue([&gate]() { gate.Enter(); }));
  gate.WaitUntilEntered();
  // ...and fill the queue to capacity.
  std::atomic<int> done{0};
  ASSERT_TRUE(pool.Enqueue([&done]() { ++done; }));
  ASSERT_TRUE(pool.Enqueue([&done]() { ++done; }));
  EXPECT_EQ(pool.queue_depth(), 2u);

  // Non-blocking submission sheds load instead of growing the queue.
  EXPECT_FALSE(pool.TryEnqueue([&done]() { ++done; }));

  // Blocking submission parks until the worker frees a slot.
  std::atomic<bool> enqueued{false};
  std::thread producer([&pool, &done, &enqueued]() {
    ASSERT_TRUE(pool.Enqueue([&done]() { ++done; }));
    enqueued = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(enqueued.load());  // still blocked: queue is full

  gate.Release();
  producer.join();
  EXPECT_TRUE(enqueued.load());
  pool.Wait();
  EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2, 4);
  auto future =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(
      {
        try {
          future.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // The pool survives the exception and keeps serving.
  auto ok = pool.Submit([]() { return 1; });
  EXPECT_EQ(ok.get(), 1);
}

TEST(ThreadPoolTest, EnqueuedExceptionIsContained) {
  ThreadPool pool(1, 4);
  ASSERT_TRUE(pool.Enqueue([]() { throw std::runtime_error("swallowed"); }));
  pool.Wait();
  EXPECT_EQ(pool.tasks_failed(), 1u);
  EXPECT_EQ(pool.tasks_executed(), 1u);
  std::atomic<int> counter{0};
  ASSERT_TRUE(pool.Enqueue([&counter]() { ++counter; }));
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueueAndRejectsNewWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, 32);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.Enqueue([&counter]() {
        std::this_thread::sleep_for(1ms);
        ++counter;
      }));
    }
    pool.Shutdown();
    // Every task accepted before shutdown ran to completion.
    EXPECT_EQ(counter.load(), 20);
    EXPECT_FALSE(pool.Enqueue([&counter]() { ++counter; }));
    EXPECT_FALSE(pool.TryEnqueue([&counter]() { ++counter; }));
    auto rejected = pool.Submit([]() { return 0; });
    EXPECT_THROW(rejected.get(), std::runtime_error);
    pool.Shutdown();  // idempotent
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4, 8);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(pool.Enqueue([&counter]() { ++counter; }));
    }
  }  // ~ThreadPool
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace cloudsurv
