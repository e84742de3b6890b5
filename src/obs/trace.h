// Per-query tracing for the serving stack: spans + a sampled flight
// recorder + a slow-query log.
//
// Every query admitted to AmServer is assigned a monotonically increasing
// trace_id, and a SpanRecord rides along with it through Scheduler →
// SearchEngine → shard tasks, collecting stage timestamps: enqueue (absolute
// monotonic ns), then admit / batch-form / dispatch / fulfill as ns offsets
// from enqueue, plus the scan and merge *durations* measured inside the
// query's engine task (those two run at thread-pool-determined absolute
// times, so durations are the honest representation).  A span is plain data
// with fixed layout — no heap allocation is ever performed per span.
//
// Queries arriving over TCP carry five additional *wire* stages, all
// offsets from the same enqueue base, which for a wire query is the
// instant its frame was completely received: io_recv (frame bytes
// complete) → decode (payload parsed) → submit_queue (the I/O thread calls
// AmServer::submit) → …server stages… → encode (reply bytes built, in the
// query's completion callback) → io_send (last reply byte handed to the
// kernel, by the I/O thread).  Stamped stages are monotone in that order,
// so one sampled span reconciles client-observed latency against every
// queue the server put it through.
// wire() distinguishes the two populations.
//
// Completed spans land in a FlightRecorder: a fixed-capacity ring buffer
// (preallocated; oldest overwritten) holding 1-in-N sampled spans.  Sampling
// is by trace_id (`id % sample_every == 0`), so which queries are recorded
// is deterministic for a deterministic submission order — the property the
// sampling tests pin.
//
// The SlowQueryLog is the anti-sampling companion: a separate ring that
// captures *every* completed span whose wall latency (io_send for wire
// spans, fulfill otherwise) meets a configurable threshold, regardless of
// the 1-in-N stride — exactly the spans an operator wants are exactly the
// ones sampling is most likely to miss.  Threshold 0 captures everything
// (test mode); a negative threshold disables the log.  It still requires
// tracing to be on: with the recorder in kOff mode no stage clock is read,
// so there is nothing to capture.
//
// Kill switch, strongest first:
//  * compile-time — building with TDAM_TRACE_DISABLED (CMake option
//    TDAM_DISABLE_TRACING) pins the mode to kOff regardless of environment
//    or per-server configuration;
//  * runtime — TDAM_TRACE=off|sampled|full (TraceConfig::from_env, the
//    default for ServerOptions::trace), with TDAM_TRACE_SAMPLE=N and
//    TDAM_TRACE_CAPACITY=M for the sampling stride and ring size, and
//    TDAM_SLOW_MS=T / TDAM_SLOW_CAPACITY=M for the slow-query log;
//  * per-server — ServerOptions::trace overrides the environment.
//
// In kOff mode no stage clock is ever read and the recorder drops
// everything; in kSampled mode every query is stamped (stage histograms in
// ServingMetrics see all traffic) but only sampled spans enter the ring; in
// kFull mode every span is recorded — a debugging mode whose overhead is
// accepted.  bench_obs_overhead measures the off-vs-sampled wall-QPS cost,
// in-process and over loopback TCP.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tdam::obs {

enum class TraceMode { kOff, kSampled, kFull };

struct TraceConfig {
  TraceMode mode = TraceMode::kSampled;
  int sample_every = 16;        // kSampled: record spans with id % N == 0
  std::size_t capacity = 1024;  // ring slots (spans retained)
  // Slow-query log: capture every span at least this slow (-1 disables,
  // 0 captures everything).  Wall latency is io_send for wire spans,
  // fulfill for in-process ones.
  std::int64_t slow_threshold_ns = -1;
  std::size_t slow_capacity = 256;

  // Reads TDAM_TRACE / TDAM_TRACE_SAMPLE / TDAM_TRACE_CAPACITY /
  // TDAM_SLOW_MS / TDAM_SLOW_CAPACITY; unknown or malformed values warn
  // once on stderr and fall back to the defaults above.  Compiled with
  // TDAM_TRACE_DISABLED this always returns kOff.
  static TraceConfig from_env();
};

// Monotonic-clock "now" in integer nanoseconds — the span timebase.
inline std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One query's trajectory through the serving stack.  -1 marks a stage the
// query never reached (e.g. a rejected query has no dispatch; an
// in-process query has no wire stages).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  int status = -1;                // runtime::QueryStatus value; -1 unfinished
  std::int64_t enqueue_ns = -1;   // absolute steady-clock ns at submit (for
                                  // wire queries: at frame receipt)
  std::int64_t admit_ns = -1;     // offsets from enqueue_ns …
  std::int64_t batch_form_ns = -1;
  std::int64_t dispatch_ns = -1;
  std::int64_t fulfill_ns = -1;
  std::int64_t scan_ns = -1;      // … except these two: stage durations
  std::int64_t merge_ns = -1;
  // Wire stages (offsets from enqueue_ns), stamped only for queries that
  // entered through AmTcpServer; see the header comment for the order.
  std::int64_t io_recv_ns = -1;
  std::int64_t decode_ns = -1;
  std::int64_t submit_queue_ns = -1;
  std::int64_t encode_ns = -1;
  std::int64_t io_send_ns = -1;
  // Query metadata, for the slow-log breakdown: requested k and the index
  // generation that answered (0 until fulfilled).
  std::int32_t k = 0;
  std::uint64_t generation = 0;

  bool traced() const { return enqueue_ns >= 0; }
  bool wire() const { return io_recv_ns >= 0; }
  // Wall latency in ns as the client experiences it: through io_send for
  // wire spans, through fulfill otherwise; -1 while unfinished.
  std::int64_t wall_ns() const {
    return io_send_ns >= 0 ? io_send_ns : fulfill_ns;
  }
};

class FlightRecorder {
 public:
  explicit FlightRecorder(TraceConfig config = TraceConfig::from_env());

  // Effective mode (the compile-time kill switch may have forced kOff).
  TraceMode mode() const { return config_.mode; }
  const TraceConfig& config() const { return config_; }
  bool enabled() const { return config_.mode != TraceMode::kOff; }

  // Next query's trace id; ids start at 1 and never repeat.  Always live
  // (even in kOff mode results still carry correlatable ids) — one relaxed
  // fetch_add.
  std::uint64_t next_trace_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Whether a span with this id belongs in the ring.  Deterministic:
  // kFull → all, kSampled → id % sample_every == 0, kOff → none.
  bool sampled(std::uint64_t trace_id) const {
    switch (config_.mode) {
      case TraceMode::kOff: return false;
      case TraceMode::kFull: return true;
      case TraceMode::kSampled:
        return trace_id % static_cast<std::uint64_t>(config_.sample_every) ==
               0;
    }
    return false;
  }

  // Stores the span if it is traced and sampled (no-op otherwise).  The
  // ring itself is mutex-guarded — by construction only sampled spans reach
  // the lock, so in kSampled mode 1-in-N queries pay one uncontended
  // lock+copy and the rest pay a branch.
  void record(const SpanRecord& span);

  // Retained spans, oldest first.
  std::vector<SpanRecord> snapshot() const;

  // Spans accepted over the recorder's lifetime (>= snapshot().size();
  // the difference is what the ring overwrote).
  std::uint64_t recorded() const;
  std::size_t capacity() const { return config_.capacity; }

  void clear();

 private:
  TraceConfig config_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;  // preallocated to capacity
  std::size_t head_ = 0;          // next slot to write
  std::uint64_t total_ = 0;       // accepted spans
};

// Serving-stack context attached to slow-query dumps: which backend/metric
// the captured spans were measured against.  Set once at server start.
struct SlowQueryContext {
  std::string backend;
  std::string metric;
  int shards = 0;
};

// Threshold-triggered span ring: every completed span at least
// threshold_ns slow is captured (no sampling stride).  Same preallocated
// ring + mutex discipline as the FlightRecorder; the capture path is a
// branch on wall_ns() for the fast majority of queries.
class SlowQueryLog {
 public:
  // threshold_ns < 0 disables the log (maybe_capture becomes a branch);
  // threshold_ns == 0 captures every completed span.
  SlowQueryLog(std::int64_t threshold_ns = -1, std::size_t capacity = 256);

  bool enabled() const { return threshold_ns_ >= 0; }
  std::int64_t threshold_ns() const { return threshold_ns_; }
  std::size_t capacity() const { return capacity_; }

  void set_context(SlowQueryContext context);
  SlowQueryContext context() const;

  // Captures `span` when the log is enabled, the span is traced and
  // finished, and its wall latency is >= the threshold.
  void maybe_capture(const SpanRecord& span);

  // Captured spans, oldest first.
  std::vector<SpanRecord> snapshot() const;
  // Spans captured over the log's lifetime (>= snapshot().size()).
  std::uint64_t captured() const;
  void clear();

 private:
  std::int64_t threshold_ns_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  SlowQueryContext context_;
  std::vector<SpanRecord> ring_;  // preallocated to capacity
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace tdam::obs
