#include "runtime/server.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/backend.h"

namespace tdam::runtime {

namespace {
double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Queue-wait duration for a span: batch-form minus the submit-queue stamp.
// In-process queries have no submit_queue stamp (offset -1 → clamped to 0),
// so their queue wait is the full enqueue→batch-form interval; wire queries
// subtract the receive/decode time that preceded their submit call,
// keeping the queue_wait stage family a pure admission-queue measurement.
double queue_wait_seconds(const obs::SpanRecord& span) {
  return static_cast<double>(span.batch_form_ns -
                             std::max<std::int64_t>(span.submit_queue_ns, 0)) *
         1e-9;
}
}  // namespace

AmServer::AmServer(ShardedIndex& index, ServerOptions options)
    : index_(index),
      options_(options),
      engine_(index, options.engine),
      recorder_(options.trace),
      slow_(options.trace.slow_threshold_ns, options.trace.slow_capacity),
      scheduler_(options.scheduler, &engine_.metrics(), &recorder_, &slow_),
      dispatcher_([this] { serve_loop(); }) {
  // Segment gauges and compaction timings land in this server's registry,
  // so one scrape covers admission, engine, and index lifecycle.
  index_.set_metrics(&engine_.metrics());
  slow_.set_context({index_.backend_name(),
                     core::metric_name(index_.metric()),
                     index_.num_shards()});
}

AmServer::~AmServer() {
  shutdown();
  // Detach before engine_ (and its metrics) is destroyed — the index and
  // its compaction thread may outlive this server.
  index_.set_metrics(nullptr);
}

void AmServer::shutdown() {
  scheduler_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<ServedResult> AmServer::submit(
    std::span<const int> query, int k,
    std::chrono::steady_clock::time_point deadline) {
  ServedCallback done;
  auto future = bind_future(done);
  submit(query, k, deadline, obs::SpanRecord{}, std::move(done));
  return future;
}

void AmServer::submit(std::span<const int> query, int k,
                      std::chrono::steady_clock::time_point deadline,
                      obs::SpanRecord seed, ServedCallback done) {
  if (k < 1)
    throw std::invalid_argument("AmServer::submit: k must be >= 1");
  if (static_cast<int>(query.size()) != index_.stages())
    throw std::invalid_argument(
        "AmServer::submit: query has " + std::to_string(query.size()) +
        " digits, index stores " + std::to_string(index_.stages()));
  for (std::size_t i = 0; i < query.size(); ++i)
    if (query[i] < 0 || query[i] >= index_.levels())
      throw std::invalid_argument(
          "AmServer::submit: digit " + std::to_string(query[i]) +
          " at position " + std::to_string(i) + " outside [0, " +
          std::to_string(index_.levels()) + ")");
  PendingQuery pending;
  pending.digits.assign(query.begin(), query.end());
  pending.k = k;
  pending.deadline = deadline;
  pending.enqueued = std::chrono::steady_clock::now();
  pending.done = std::move(done);
  // Ids are assigned even with tracing off so every ServedResult is
  // correlatable; the enqueue stamp (which arms all later stage stamps) is
  // only taken when tracing is on.  A traced wire seed already carries its
  // base (frame receipt) and pre-server stamps — keep them, so the span's
  // offsets stay anchored to one instant.
  pending.span = seed;
  pending.span.trace_id = recorder_.next_trace_id();
  if (pending.span.enqueue_ns < 0 && recorder_.enabled())
    pending.span.enqueue_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            pending.enqueued.time_since_epoch())
            .count();
  scheduler_.enqueue(std::move(pending));
}

std::vector<std::future<ServedResult>> AmServer::submit(
    const core::DigitMatrix& queries, int k,
    std::chrono::steady_clock::time_point deadline) {
  if (queries.cols() != index_.stages())
    throw std::invalid_argument(
        "AmServer::submit: queries have " + std::to_string(queries.cols()) +
        " digits, index stores " + std::to_string(index_.stages()));
  std::vector<std::future<ServedResult>> futures;
  futures.reserve(static_cast<std::size_t>(queries.rows()));
  for (int r = 0; r < queries.rows(); ++r)
    futures.push_back(submit(queries.unpack_row(r), k, deadline));
  return futures;
}

int AmServer::store(std::span<const int> digits) {
  return index_.store(digits);  // publishes a new epoch; never blocks reads
}

void AmServer::clear() {
  index_.clear();  // publishes a new epoch; never blocks reads
}

std::uint64_t AmServer::generation() const { return index_.generation(); }

void AmServer::serve_loop() {
  for (;;) {
    auto batch = scheduler_.next_batch();
    if (batch.empty()) return;  // closed and drained
    run_batch(std::move(batch));
  }
}

void AmServer::run_batch(std::vector<PendingQuery> batch) {
  const auto now = std::chrono::steady_clock::now();
  // Deadline check at dequeue: an expired query is answered without ever
  // touching the shards — the cheapest possible form of load shedding.
  std::vector<PendingQuery> live;
  live.reserve(batch.size());
  for (auto& query : batch) {
    if (query.deadline <= now) {
      engine_.metrics().record_expired();
      ServedResult out;
      out.status = QueryStatus::kDeadlineExpired;
      out.queue_seconds = seconds_between(query.enqueued, now);
      out.trace_id = query.span.trace_id;
      if (query.span.traced()) {
        if (query.span.batch_form_ns >= 0)
          out.stages.queue_wait = queue_wait_seconds(query.span);
        query.span.status = static_cast<int>(QueryStatus::kDeadlineExpired);
        query.span.k = query.k;
        query.span.fulfill_ns =
            obs::steady_now_ns() - query.span.enqueue_ns;
        if (!query.span.wire()) {
          recorder_.record(query.span);
          slow_.maybe_capture(query.span);
        }
        out.span = query.span;
      }
      query.done(std::move(out), nullptr);
    } else {
      live.push_back(std::move(query));
    }
  }
  if (live.empty()) return;

  // One engine call per distinct k (queries in a micro-batch may disagree
  // on k); arrival order is preserved within each group, and the engine is
  // deterministic, so coalescing never changes any query's answer.
  std::map<int, std::vector<std::size_t>> by_k;
  for (std::size_t i = 0; i < live.size(); ++i)
    by_k[live[i].k].push_back(i);

  // Pin one snapshot for the whole micro-batch: every answer below —
  // across all per-k engine calls — is computed against this one epoch,
  // while writers publish new epochs freely in parallel.
  const auto snap = index_.pin();
  const auto generation = snap->generation;
  for (auto& [k, members] : by_k) {
    core::DigitMatrix packed(index_.stages(), index_.levels());
    for (const auto i : members) packed.append(live[i].digits);
    // Dispatch stamp: the moment this k-group's engine call starts.
    const std::int64_t dispatched = obs::steady_now_ns();
    for (const auto i : members) {
      auto& span = live[i].span;
      if (span.traced()) span.dispatch_ns = dispatched - span.enqueue_ns;
    }
    std::vector<TopKResult> results;
    try {
      results = engine_.submit_batch(snap, packed, k);
    } catch (...) {
      for (const auto i : members)
        live[i].done(ServedResult{}, std::current_exception());
      continue;
    }
    for (std::size_t j = 0; j < members.size(); ++j) {
      auto& query = live[members[j]];
      ServedResult out;
      out.status = QueryStatus::kOk;
      out.result = std::move(results[j]);
      out.queue_seconds = seconds_between(query.enqueued, now);
      out.generation = generation;
      out.trace_id = query.span.trace_id;
      out.stages.scan = out.result.scan_seconds;
      out.stages.merge = out.result.merge_seconds;
      auto& span = query.span;
      if (span.traced()) {
        if (span.batch_form_ns >= 0)
          out.stages.queue_wait = queue_wait_seconds(span);
        if (span.batch_form_ns >= 0 && span.dispatch_ns >= span.batch_form_ns)
          out.stages.batch_wait =
              static_cast<double>(span.dispatch_ns - span.batch_form_ns) *
              1e-9;
        span.scan_ns =
            static_cast<std::int64_t>(out.result.scan_seconds * 1e9);
        span.merge_ns =
            static_cast<std::int64_t>(out.result.merge_seconds * 1e9);
        span.status = static_cast<int>(QueryStatus::kOk);
        span.k = query.k;
        span.generation = generation;
        span.fulfill_ns = obs::steady_now_ns() - span.enqueue_ns;
        if (!span.wire()) {
          recorder_.record(span);
          slow_.maybe_capture(span);
        }
        out.span = span;
      }
      // scan/merge were already recorded by the engine inside submit_batch;
      // only the queueing stages are this layer's to report.
      StageTimings pre = out.stages;
      pre.scan = -1.0;
      pre.merge = -1.0;
      engine_.metrics().record_stage_times(pre);
      query.done(std::move(out), nullptr);
    }
  }
}

}  // namespace tdam::runtime
