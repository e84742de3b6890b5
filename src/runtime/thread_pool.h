// Fixed-size worker pool backing the serving engine.
//
// The engine's unit of work is "one query against all shards", so the pool
// only needs a plain FIFO task queue with future-based completion — no work
// stealing, no priorities.  Tasks submitted before destruction are always
// executed: shutdown drains the queue, then joins, so a batch whose futures
// are still pending cannot be dropped on the floor.  Exceptions thrown by a
// task are captured in its future (std::packaged_task semantics) and rethrow
// at `get()` on the submitter's thread.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tdam::runtime {

class ThreadPool {
 public:
  // Spawns `threads` workers (>= 1, else throws).
  explicit ThreadPool(int threads);

  // Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` and returns a future for its result.  Throws
  // std::runtime_error if the pool is already shutting down.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using Result = std::invoke_result_t<Fn&>;
    // The task is counted inside the callable, before packaged_task makes
    // the future ready (or stores its exception), so a caller that has
    // get() every future also sees every task in completed().
    auto task = std::packaged_task<Result()>(
        [this, f = std::forward<Fn>(fn)]() mutable -> Result {
          const CountOnExit count{*this};
          return f();
        });
    auto future = task.get_future();
    enqueue(std::packaged_task<void()>(
        [t = std::move(task)]() mutable { t(); }));
    return future;
  }

  // Number of tasks executed since construction (for tests/metrics).
  std::size_t completed() const;

 private:
  struct CountOnExit {
    ThreadPool& pool;
    ~CountOnExit() {
      std::lock_guard<std::mutex> lock(pool.mutex_);
      ++pool.completed_;
    }
  };

  void enqueue(std::packaged_task<void()> task);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t completed_ = 0;
  bool stopping_ = false;
};

}  // namespace tdam::runtime
