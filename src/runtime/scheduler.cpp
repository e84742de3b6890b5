#include "runtime/scheduler.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace tdam::runtime {

namespace {

// Complete a query with a shards-never-touched terminal status,
// closing out its trace span if the query carries one.  Wire spans are NOT
// recorded here: the TCP server still owes them encode/io_send stamps, so
// the stamped span travels back through ServedResult instead.
void finish(PendingQuery& query, QueryStatus status,
            obs::FlightRecorder* recorder, obs::SlowQueryLog* slow) {
  ServedResult out;
  out.status = status;
  out.queue_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - query.enqueued)
                          .count();
  out.trace_id = query.span.trace_id;
  if (query.span.traced()) {
    query.span.status = static_cast<int>(status);
    query.span.fulfill_ns = obs::steady_now_ns() - query.span.enqueue_ns;
    if (!query.span.wire()) {
      if (recorder) recorder->record(query.span);
      if (slow) slow->maybe_capture(query.span);
    }
    out.span = query.span;
  }
  if (query.done) query.done(std::move(out), nullptr);
}

}  // namespace

std::future<ServedResult> bind_future(ServedCallback& done) {
  auto promise = std::make_shared<std::promise<ServedResult>>();
  auto future = promise->get_future();
  done = [promise](ServedResult result, std::exception_ptr error) {
    if (error)
      promise->set_exception(std::move(error));
    else
      promise->set_value(std::move(result));
  };
  return future;
}

Scheduler::Scheduler(SchedulerOptions options, ServingMetrics* metrics,
                     obs::FlightRecorder* recorder, obs::SlowQueryLog* slow)
    : options_(options), metrics_(metrics), recorder_(recorder), slow_(slow) {
  if (options_.max_batch < 1)
    throw std::invalid_argument("Scheduler: max_batch must be >= 1 (got " +
                                std::to_string(options_.max_batch) + ")");
  if (options_.queue_capacity < 1)
    throw std::invalid_argument("Scheduler: queue_capacity must be >= 1 (got " +
                                std::to_string(options_.queue_capacity) + ")");
  if (options_.max_delay < 0.0)
    throw std::invalid_argument("Scheduler: max_delay must be >= 0");
}

Scheduler::~Scheduler() {
  close();
  std::deque<PendingQuery> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    orphans.swap(queue_);
    publish_depth_locked();
  }
  for (auto& query : orphans)
    finish(query, QueryStatus::kRejected, recorder_, slow_);
}

void Scheduler::publish_depth_locked() {
  if (metrics_) metrics_->set_queue_depth(queue_.size());
}

void Scheduler::enqueue(PendingQuery query) {
  PendingQuery victim;  // shed query, finished outside the lock
  bool have_victim = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ &&
        queue_.size() >= static_cast<std::size_t>(options_.queue_capacity)) {
      switch (options_.policy) {
        case AdmissionPolicy::kBlock:
          space_free_.wait(lock, [this] {
            return closed_ || queue_.size() <
                                  static_cast<std::size_t>(
                                      options_.queue_capacity);
          });
          break;
        case AdmissionPolicy::kReject:
          if (metrics_) metrics_->record_rejected();
          lock.unlock();
          finish(query, QueryStatus::kRejected, recorder_, slow_);
          return;
        case AdmissionPolicy::kShedOldest:
          victim = std::move(queue_.front());
          queue_.pop_front();
          have_victim = true;
          if (metrics_) metrics_->record_shed();
          break;
      }
    }
    if (closed_) {
      if (metrics_) metrics_->record_rejected();
      lock.unlock();
      finish(query, QueryStatus::kRejected, recorder_, slow_);
      return;
    }
    if (query.span.traced())  // admission cleared (kBlock may have waited)
      query.span.admit_ns = obs::steady_now_ns() - query.span.enqueue_ns;
    queue_.push_back(std::move(query));
    publish_depth_locked();
  }
  batch_ready_.notify_one();
  if (have_victim) finish(victim, QueryStatus::kShed, recorder_, slow_);
}

std::vector<PendingQuery> Scheduler::next_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      if (closed_) return {};
      batch_ready_.wait(lock,
                        [this] { return closed_ || !queue_.empty(); });
      continue;  // re-evaluate: close() with an empty queue returns above
    }
    if (closed_ ||
        queue_.size() >= static_cast<std::size_t>(options_.max_batch))
      break;
    const auto flush_at =
        queue_.front().enqueued +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.max_delay));
    if (!batch_ready_.wait_until(lock, flush_at, [this] {
          return closed_ || queue_.size() >=
                                static_cast<std::size_t>(options_.max_batch);
        }))
      break;  // max_delay elapsed on the oldest query: flush what pends
  }
  std::vector<PendingQuery> batch;
  const auto take = std::min(queue_.size(),
                             static_cast<std::size_t>(options_.max_batch));
  batch.reserve(take);
  const std::int64_t formed = obs::steady_now_ns();
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    auto& span = batch.back().span;
    if (span.traced()) span.batch_form_ns = formed - span.enqueue_ns;
  }
  publish_depth_locked();
  lock.unlock();
  space_free_.notify_all();
  return batch;
}

void Scheduler::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  batch_ready_.notify_all();
  space_free_.notify_all();
}

bool Scheduler::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int Scheduler::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

}  // namespace tdam::runtime
