// Asynchronous serving front-end over the sharded TD-AM engine.
//
// The paper answers one query in a single pulse propagation across M
// parallel chains; the serving layer must therefore never serialize callers
// behind a blocking batch API.  AmServer accepts individual queries from
// any number of threads (`submit` returns immediately, with a std::future
// or with a completion callback the dispatcher later runs), and a single
// dispatcher thread takes whatever pends on a Scheduler (up to max_batch)
// the moment it is free and answers it with one call into the owned
// SearchEngine, at the batch's largest k.  Nothing waits for a batch to
// fill: a lone query is dispatched at once, and under load queries pile up
// while the dispatcher is busy, so batches fill by themselves.
//
// Degradation is explicit, observable, and per-query:
//  * admission   — the Scheduler's bounded queue applies kBlock / kReject /
//    kShedOldest; bounced queries resolve with QueryStatus::kRejected /
//    kShed and count in ServingMetrics;
//  * deadlines   — checked at dequeue: a query whose deadline passed while
//    queued resolves with QueryStatus::kDeadlineExpired WITHOUT touching
//    the shards (load shedding proper), and counts in metrics;
//  * answered    — QueryStatus::kOk with the engine's TopKResult, stamped
//    with the index generation it was computed against.
//
// Mutation while live needs no lock at this layer: the segmented index
// publishes immutable snapshots, so store() and clear() forward straight
// to it and return without waiting for the in-flight micro-batch — and the
// batch never waits for them.  The dispatcher pins one snapshot per
// micro-batch (a single atomic load) and stamps its generation on every
// answer, so a result with generation G was computed against exactly the
// store state after the G-th mutation; queries dispatched after a write
// see the new epoch.
//
// shutdown() (and the destructor) closes admission, drains every queued
// query (answered or expired, never silently dropped), and joins the
// dispatcher.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/digit_matrix.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "runtime/sharded_index.h"

namespace tdam::runtime {

struct ServerOptions {
  EngineOptions engine;         // worker threads inside each micro-batch
  SchedulerOptions scheduler;   // batching + admission control
  // Tracing mode / sampling / ring capacity; defaults come from the
  // TDAM_TRACE* environment (see obs::TraceConfig::from_env) so deployments
  // flip tracing without code changes, and an explicit value here overrides
  // the environment per server.
  obs::TraceConfig trace = obs::TraceConfig::from_env();
};

class AmServer {
 public:
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  // The server serves `index` and registers the index's segment/compaction
  // instruments in its metrics registry.  The index is internally
  // synchronized, so concurrent mutation through other references is safe;
  // this server's result generations simply interleave with it.
  AmServer(ShardedIndex& index, ServerOptions options = {});
  ~AmServer();

  AmServer(const AmServer&) = delete;
  AmServer& operator=(const AmServer&) = delete;

  // Asynchronously answers one query of index().stages() digits with its
  // global top-k.  Validates digits/k synchronously (throws
  // std::invalid_argument); admission-control and deadline outcomes arrive
  // through the future's QueryStatus instead, and an engine failure as the
  // future's exception.  Thread-safe.  A thin wrapper over the callback
  // form below (see bind_future).
  std::future<ServedResult> submit(
      std::span<const int> query, int k,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  // Callback form, the wire path's: `done` (required) runs exactly once
  // with the terminal state (see ServedCallback for which thread runs it),
  // unless validation throws, in which case it never runs.  `seed` is a
  // partially stamped span carrying the stages that happened before the
  // query reached this server (io_recv / decode / submit_queue, with
  // enqueue_ns = the frame-receipt instant as the base every later stamp
  // offsets from).
  // The server assigns the trace id, keeps the seed's base, and stamps
  // onward from it — so one span reconciles wire time against
  // queue/dispatch/scan time.  A wire span (seed.wire()) is NOT recorded at
  // the server-side terminal transition: it travels to `done` through
  // ServedResult::span for the TCP front-end to finish (encode / io_send)
  // and record.  Under a kBlock scheduler a full queue stalls the caller.
  void submit(std::span<const int> query, int k,
              std::chrono::steady_clock::time_point deadline,
              obs::SpanRecord seed, ServedCallback done);

  // Packed form: one future per row of `queries` (validated against the
  // index geometry), all sharing one deadline.
  std::vector<std::future<ServedResult>> submit(
      const core::DigitMatrix& queries, int k,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  // Mutations apply immediately (bumping the index generation) without
  // draining — or being blocked by — the in-flight micro-batch.  Safe
  // while serving; throws what the index throws.
  int store(std::span<const int> digits);
  void clear();
  // The published epoch: lock-free, one atomic snapshot load.
  std::uint64_t generation() const;

  const ShardedIndex& index() const { return index_; }
  const ServingMetrics& metrics() const { return engine_.metrics(); }
  // Mutable view, letting co-located components (e.g. the Layer-8 TCP
  // front-end) register their own instruments in the same registry so one
  // scrape covers the whole serving stack.
  ServingMetrics& metrics() { return engine_.metrics(); }
  // Sampled per-query spans (enqueue → admit → batch-form → dispatch →
  // scan/merge → fulfill); see obs::FlightRecorder for the sampling rules.
  const obs::FlightRecorder& recorder() const { return recorder_; }
  // Mutable view for the TCP front-end: it seeds wire spans from
  // next_trace_id()'s generator state and records the deferred wire spans
  // into this same ring, so /traces covers both in-process and wire
  // queries.
  obs::FlightRecorder& recorder() { return recorder_; }
  // Slow-query flight recorder: every query whose wall latency crossed
  // ServerOptions::trace.slow_threshold_ns is captured with its full span
  // regardless of 1-in-N sampling.  Disabled (threshold < 0) by default.
  const obs::SlowQueryLog& slow_log() const { return slow_; }
  obs::SlowQueryLog& slow_log() { return slow_; }
  const ServerOptions& options() const { return options_; }

  // Closes admission, serves/expires everything still queued, joins the
  // dispatcher.  Idempotent; called by the destructor.
  void shutdown();

 private:
  void serve_loop();
  void run_batch(std::vector<PendingQuery> batch);

  ShardedIndex& index_;
  ServerOptions options_;
  SearchEngine engine_;
  obs::FlightRecorder recorder_;  // before scheduler_: it holds a pointer
  obs::SlowQueryLog slow_;        // likewise
  Scheduler scheduler_;
  std::thread dispatcher_;
};

}  // namespace tdam::runtime
