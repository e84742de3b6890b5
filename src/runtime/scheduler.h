// Micro-batching admission queue for the asynchronous serving front-end.
//
// The Scheduler is the synchronization core of AmServer, factored out so it
// can be unit-tested without an engine: callers enqueue individual queries
// (each carrying its own top-k, deadline, and completion callback), a single
// dispatcher thread pulls dynamic micro-batches, and a bounded queue applies
// one of three admission policies when the dispatcher falls behind:
//
//  * kBlock     — enqueue waits for space (backpressure onto the caller);
//  * kReject    — the NEW query completes immediately with
//                 QueryStatus::kRejected (fail-fast);
//  * kShedOldest — the OLDEST queued query completes with
//                 QueryStatus::kShed and the new one is admitted (the head
//                 of the queue has burned the most of its deadline, so it
//                 is the least likely to still be useful).
//
// Batch formation is the classic dynamic rule: flush as soon as max_batch
// queries pend, or as soon as the oldest pending query has waited
// max_delay, whichever comes first.  close() flushes whatever pends,
// releases blocked producers (their queries are rejected), and makes
// next_batch() return empty once drained.
//
// Deadlines are NOT enforced here — the scheduler only transports them.
// AmServer checks them at dequeue so an expired query is answered with
// kDeadlineExpired without ever touching the shards.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/metrics.h"

namespace tdam::runtime {

// Terminal state of one asynchronously served query.  Every status other
// than kOk means the shards were never consulted.
enum class QueryStatus {
  kOk,               // answered; ServedResult::result is valid
  kRejected,         // bounced at admission (kReject policy, or shutdown)
  kShed,             // evicted from the queue by a newer query (kShedOldest)
  kDeadlineExpired,  // deadline passed before dispatch
};

enum class AdmissionPolicy { kBlock, kReject, kShedOldest };

// What a submit() future resolves to.
struct ServedResult {
  QueryStatus status = QueryStatus::kRejected;
  TopKResult result;           // populated iff status == kOk
  double queue_seconds = 0.0;  // enqueue -> terminal transition
  // ShardedIndex::generation() the answer was computed against (kOk only);
  // lets a caller correlate answers with concurrent stores/clears.
  std::uint64_t generation = 0;
  // Per-query trace id assigned at submit (0 when the server has no
  // recorder, e.g. queries driven through a bare Scheduler in tests);
  // correlates with flight-recorder spans and log lines.
  std::uint64_t trace_id = 0;
  // Stage durations for this query; stages never reached stay -1 (tracing
  // off, or a non-kOk status).
  StageTimings stages;
  // The query's full trace span at its server-side terminal transition.
  // For in-process queries the server already recorded it; for wire
  // queries (span.wire()) recording is DEFERRED — AmTcpServer stamps the
  // remaining wire stages (encode/io_send) onto this copy and records it
  // once the reply bytes reach the kernel.
  obs::SpanRecord span;
};

// A query's one completion: called exactly once with its terminal state,
// or with the exception the engine threw (`result` is then default).  It
// runs on the dispatcher thread for answered, expired and failed queries,
// and inside the enqueue() call that rejects or sheds the query otherwise,
// so it must not wait on anything that waits on either of those threads.
using ServedCallback =
    std::function<void(ServedResult result, std::exception_ptr error)>;

// Points `done` at a fresh promise and returns its future: the engine's
// exception reaches the future as that exception.  The future-returning
// AmServer::submit overloads are built on this.
std::future<ServedResult> bind_future(ServedCallback& done);

struct SchedulerOptions {
  int max_batch = 32;            // flush when this many queries pend
  double max_delay = 2e-3;       // s; flush when the oldest waited this long
  int queue_capacity = 1024;     // bound on pending queries
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
};

// One pending query in flight between submit() and the dispatcher.
struct PendingQuery {
  std::vector<int> digits;
  int k = 1;
  // steady_clock::time_point::max() == no deadline.
  std::chrono::steady_clock::time_point deadline;
  std::chrono::steady_clock::time_point enqueued;
  // May be empty (bare-scheduler tests): the query then finishes silently.
  ServedCallback done;
  // Trace span riding along with the query; untraced (enqueue_ns == -1)
  // unless AmServer stamped it at submit, and every stamp below is guarded
  // on that, so scheduler-only tests pay nothing.
  obs::SpanRecord span;
};

class Scheduler {
 public:
  // Validates options (max_batch/queue_capacity >= 1, max_delay >= 0,
  // max_batch <= queue_capacity would deadlock kBlock producers — allowed,
  // batches simply flush at queue_capacity).  Metrics may be null; when
  // set, rejected/shed counters and the queue-depth gauge are recorded.
  // Recorder may be null; when set, queries terminated here (rejected,
  // shed) have their spans stamped and recorded — except wire spans, whose
  // recording AmTcpServer owns (see ServedResult::span).  The slow log,
  // when set, captures slow in-process terminations the same way.
  explicit Scheduler(SchedulerOptions options,
                     ServingMetrics* metrics = nullptr,
                     obs::FlightRecorder* recorder = nullptr,
                     obs::SlowQueryLog* slow = nullptr);

  // Safety net for owners destroyed with queries still queued (a dispatcher
  // that never drained, an owner whose constructor threw): closes admission
  // and completes every pending query with kRejected, so a submit() future
  // never observes std::future_error/broken_promise.
  ~Scheduler();

  const SchedulerOptions& options() const { return options_; }

  // Hands one query to the scheduler, applying the admission policy.  The
  // query's callback always eventually runs: from the dispatcher, from
  // this call on rejection (including enqueue-after-close), or from the
  // later enqueue() that sheds it.  Under kBlock a full queue stalls the
  // caller here until the dispatcher frees a slot.
  void enqueue(PendingQuery query);

  // Blocks until a micro-batch is ready (max_batch pending, max_delay
  // elapsed on the oldest, or close() with queries still queued) and pops
  // up to max_batch queries in arrival order.  Returns an empty vector
  // exactly when the scheduler is closed and fully drained — the
  // dispatcher's exit condition.
  std::vector<PendingQuery> next_batch();

  // Stops admission (subsequent/blocked enqueues reject), wakes the
  // dispatcher to drain what pends.
  void close();
  bool closed() const;

  // Queries currently pending.
  int depth() const;

 private:
  void publish_depth_locked();

  SchedulerOptions options_;
  ServingMetrics* metrics_;
  obs::FlightRecorder* recorder_;
  obs::SlowQueryLog* slow_;
  mutable std::mutex mutex_;
  std::condition_variable batch_ready_;   // dispatcher waits here
  std::condition_variable space_free_;    // kBlock producers wait here
  std::deque<PendingQuery> queue_;
  bool closed_ = false;
};

}  // namespace tdam::runtime
