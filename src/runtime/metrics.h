// Serving metrics with a deliberate split between two clocks:
//
//  * wall-clock — what this software engine actually achieves on the host
//    (throughput, per-query latency quantiles); and
//  * modeled hardware — what the calibrated TD-AM circuit model says the
//    physical banks would cost for the same workload (latency from the
//    slowest parallel bank, energy summed over banks, AmSystemModel pass
//    folding already applied by the engine).
//
// Keeping both visible side by side is the point: the software numbers
// validate the serving architecture, the hardware numbers carry the paper's
// efficiency claim.
//
// Since the obs refactor this class is a facade over obs::MetricsRegistry
// instruments (striped counters, gauges, atomic-bin histograms), so the
// per-query record paths — record_query_wall, record_stage_times,
// record_rejected/shed/expired, set_queue_depth — are lock-free.  The only
// mutex left guards the multi-field batch section (record_batch) against
// snapshot(), and both run once per *batch*, not per query.
//
// Reads go through snapshot(): one consistent Snapshot struct captured
// under a single lock acquisition, replacing the old getter-per-field API
// (each getter took the mutex separately, so derived values like qps could
// mix counters from different instants).  The registry() accessor exposes
// the underlying instruments for Prometheus/JSON export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace tdam::runtime {

// One batch worth of aggregated counters, as produced by the engine.
struct BatchStats {
  int queries = 0;
  double wall_seconds = 0.0;      // submit-to-last-result batch wall time
  double modeled_latency = 0.0;   // summed per-query modeled HW latency (s)
  double modeled_energy = 0.0;    // summed per-query modeled HW energy (J)
};

// Per-query serving-stage durations in seconds; -1 marks a stage the query
// never reached (a rejected query has no scan).  queue_wait and batch_wait
// partition the pre-dispatch latency: enqueue → batch formation and batch
// formation → dispatch.  scan and merge are measured inside the engine.
struct StageTimings {
  double queue_wait = -1.0;
  double batch_wait = -1.0;
  double scan = -1.0;
  double merge = -1.0;
};

class ServingMetrics {
 public:
  // Point-in-time, internally consistent view of every metric; captured by
  // snapshot() under one lock acquisition.
  struct Snapshot {
    std::size_t queries = 0;
    std::size_t batches = 0;
    double wall_seconds = 0.0;
    double qps = 0.0;  // cumulative throughput over all recorded batches
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t expired = 0;
    std::size_t queue_depth = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t resident_index_bytes = 0;
    std::size_t segments = 0;        // published segments across shards
    std::size_t delta_rows = 0;      // rows still in unsealed deltas
    std::size_t compactions = 0;     // background + forced merges completed
    std::size_t compacted_rows = 0;  // rows rewritten by those merges
    double modeled_latency_total = 0.0;
    double modeled_energy_total = 0.0;
    obs::HistogramSnapshot wall;         // per-query wall latency (s)
    obs::HistogramSnapshot batch_sizes;  // queries per micro-batch
    obs::HistogramSnapshot queue_wait;   // stage histograms (s)
    obs::HistogramSnapshot batch_wait;
    obs::HistogramSnapshot scan;
    obs::HistogramSnapshot merge;
    obs::HistogramSnapshot compaction;   // per-merge duration (s)

    // p in [0, 1]; per-query wall-latency quantile in seconds.
    double wall_quantile(double p) const { return wall.quantile(p); }
    // p in [0, 1]; micro-batch size quantile in queries per batch.
    double batch_size_quantile(double p) const {
      return batch_sizes.quantile(p);
    }
    double modeled_latency_per_query() const {
      return queries == 0
                 ? 0.0
                 : modeled_latency_total / static_cast<double>(queries);
    }
    double modeled_energy_per_query() const {
      return queries == 0
                 ? 0.0
                 : modeled_energy_total / static_cast<double>(queries);
    }
  };

  // Per-query wall latencies and stage durations use *exponential* buckets
  // over [1 µs, latency_hi) seconds — geometric edges give constant
  // relative resolution, so one instrument resolves both the µs-scale scan
  // stages and ms-scale tail latencies that uniform bins smear together.
  // Samples slower than latency_hi land in the histogram overflow and
  // quantiles clamp to latency_hi.  Batch sizes use exponential buckets
  // over [1, batch_hi) at eight per octave (~9% wide), so quantiles of
  // batches below ~11 queries resolve to within one query.
  explicit ServingMetrics(double latency_hi = 0.25, std::size_t bins = 4096,
                          std::size_t batch_hi = 1024);

  void record_query_wall(double seconds);
  // Observes every stage with a non-negative duration; lock-free.
  void record_stage_times(const StageTimings& stages);
  void record_batch(const BatchStats& batch);
  // Admission-control outcomes (AmServer): a query bounced by kReject, a
  // queued query evicted by kShedOldest, a query whose deadline passed
  // before dispatch.
  void record_rejected();
  void record_shed();
  void record_expired();
  // Gauge: queries currently waiting in the admission queue.  Also tracks
  // the high-water mark since the last reset.
  void set_queue_depth(std::size_t depth);
  // Resident bytes of the served index (packed backend storage); the engine
  // refreshes this after every batch so the summary shows what the stored
  // set actually costs in memory.
  void set_resident_index_bytes(std::size_t bytes);
  // Segment-lifecycle gauges: how many segments the published snapshot
  // holds across shards and how many rows sit in unsealed deltas.  The
  // index pushes these on every publish (store/clear/seal/compaction).
  void set_segment_stats(std::size_t segments, std::size_t delta_rows);
  // One compaction merge finished: duration and rows rewritten.
  void record_compaction(double seconds, std::size_t rows);
  // Pre-creates the per-shard instruments for shards [0, shards) —
  // tdam_serving_shard_scan_seconds{shard="s"} (exponential) and
  // tdam_serving_shard_segments{shard="s"} — so the per-query record path
  // below never touches the registry mutex.  Idempotent; the engine calls
  // it at construction, before any traffic.
  void ensure_shards(int shards);
  // Per-shard scan time for one query (seconds) and the segment count the
  // scanned snapshot held for that shard.  Lock-free; out-of-range shard
  // indices (ensure_shards not called / too small) are dropped.
  void record_shard_scan(int shard, double seconds);
  void set_shard_segments(int shard, std::size_t segments);
  void reset();

  // One lock acquisition; every field in the result is from the same
  // instant relative to record_batch.
  Snapshot snapshot() const;

  // The backing instruments, for obs::export_prometheus / export_json.
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

  // Two-column summary (util::Table) of the snapshot.
  std::string summary_table() const;
  // Per-stage latency breakdown (queue wait / batch wait / scan / merge):
  // count, p50/p95/p99 in microseconds.
  std::string stage_table() const;

 private:
  obs::MetricsRegistry registry_;
  obs::Counter* queries_;
  obs::Counter* batches_;
  obs::Counter* wall_seconds_;
  obs::Counter* rejected_;
  obs::Counter* shed_;
  obs::Counter* expired_;
  obs::Counter* modeled_latency_;
  obs::Counter* modeled_energy_;
  obs::Gauge* queue_depth_;
  obs::Gauge* peak_queue_depth_;
  obs::Gauge* resident_index_bytes_;
  obs::Gauge* segments_;
  obs::Gauge* delta_rows_;
  obs::Counter* compactions_;
  obs::Counter* compacted_rows_;
  obs::Histogram* compaction_;
  obs::Histogram* wall_;
  obs::Histogram* batch_sizes_;
  obs::Histogram* queue_wait_;
  obs::Histogram* batch_wait_;
  obs::Histogram* scan_;
  obs::Histogram* merge_;
  double latency_hi_;
  // Per-shard instruments, indexed by shard id; grown only by
  // ensure_shards (under batch_mutex_, before traffic), so the per-query
  // reads need no lock.
  std::vector<obs::Histogram*> shard_scan_;
  std::vector<obs::Gauge*> shard_segments_;
  // Guards the multi-instrument batch section against snapshot() so the
  // (queries, batches, wall_seconds) triple — and the qps derived from it —
  // is never observed mid-update.  Touched once per batch and per scrape.
  mutable std::mutex batch_mutex_;
};

}  // namespace tdam::runtime
