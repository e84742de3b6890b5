#include "runtime/thread_pool.h"

#include <stdexcept>

namespace tdam::runtime {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1)
    throw std::invalid_argument("ThreadPool: threads must be >= 1");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

void ThreadPool::enqueue(std::packaged_task<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::runtime_error("ThreadPool: submit after shutdown");
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task captures any exception in the future
  }
}

}  // namespace tdam::runtime
