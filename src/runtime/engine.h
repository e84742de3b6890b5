// Batched top-k query serving over a ShardedIndex — backend-agnostic.
//
// Execution model: one runner.  A batch is cut into *query tiles* of
// index().query_tile() queries (the backend's ScanOptions knob; 1 for a
// backend that answers query by query, e.g. behavioral — a tile of one is
// just a tile).  Each tile is broadcast to every segment of every shard
// through the one backend search hook
// (core::SimilarityBackend::search_topk_packed_batch), so each stored
// segment is streamed through the cache once per tile instead of once per
// query.  Rows are translated to global ids and merged per query into a
// global top-k with the deterministic tie-break (score in the metric's
// direction, then lower global row id).  Tiles run concurrently on a fixed
// ThreadPool; each query's result is written to its own preallocated slot,
// so the returned batch is bit-identical for any thread count and any tile
// size.  `threads = 1` runs the tiles inline and is the sequential
// reference the determinism tests pin against.
//
// Concurrency: a batch runs against one pinned IndexSnapshot — a single
// atomic load, no lock — so stores, clears and compactions land freely
// while the batch scans.  Every query in the batch sees the same epoch;
// AmServer pins once per micro-batch and stamps that snapshot's generation
// on the results.  Because segment lists are immutable, the merge order
// (and therefore the result) for a quiesced index is bit-identical to the
// seed's single-bank engine.
//
// Query representation: queries arrive packed in a core::DigitMatrix (one
// contiguous buffer per batch) and reach the kernels as packed words, never
// unpacked.  A batch packed over another alphabet is repacked once into the
// index's geometry.  The span<const vector<int>> overload is a thin adapter
// that packs and delegates, kept for callers that hold unpacked digits.
//
// Cost accounting per query:
//  * wall   — host time for the query: an even share of its tile's scan
//    plus its own merge (recorded into ServingMetrics' latency histogram;
//    batch wall time drives the QPS counter);
//  * modeled hardware — each segment's QueryCostModel hook
//    (core::SimilarityBackend::query_cost) at the *measured* per-segment
//    mismatch fraction.  A shard's segments share one physical bank, so
//    their costs add up as sequential passes; shards are parallel banks:
//    modeled latency is the slowest bank, modeled energy sums over banks,
//    passes report the worst bank's fold count.
//
// The engine never names a concrete backend — it compiles against the
// core interface only, so a registry entry is all a new engine needs to be
// servable.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/backend.h"
#include "core/digit_matrix.h"
#include "runtime/metrics.h"
#include "runtime/sharded_index.h"
#include "runtime/thread_pool.h"

namespace tdam::runtime {

struct EngineOptions {
  int threads = 1;
};

// Per-query answer: up to k (global row, distance) hits sorted by
// (distance, row), plus both cost views.
struct TopKResult {
  std::vector<core::TopKEntry> entries;
  double modeled_latency = 0.0;  // slowest parallel bank (s)
  double modeled_energy = 0.0;   // all banks (J)
  int modeled_passes = 0;        // worst bank's sequential array passes
  double wall_seconds = 0.0;     // host time for this query
  // Stage split of wall_seconds for tracing: the shard broadcast and the
  // global top-k merge (durations — the task runs at a pool-determined
  // absolute time).
  double scan_seconds = 0.0;
  double merge_seconds = 0.0;
};

class SearchEngine {
 public:
  // The engine serves queries against `index`.  Live mutation is fine:
  // each batch pins the index's published snapshot (or scans one the
  // caller already pinned) and never touches writer state.
  SearchEngine(const ShardedIndex& index, EngineOptions options = {});

  int threads() const { return options_.threads; }
  const ShardedIndex& index() const { return index_; }

  // Answers every row of `queries` (cols() must equal index().stages())
  // with its global top-k against the current published snapshot.  k must
  // be >= 1; fewer than k entries come back when the index holds fewer
  // rows.  Updates the serving metrics as a side effect.  A batch packed
  // over the index's alphabet goes to the segments as is; any other batch
  // is repacked once, and a digit outside the index's alphabet throws
  // std::invalid_argument.
  std::vector<TopKResult> submit_batch(const core::DigitMatrix& queries,
                                       int k);

  // Same, against a caller-pinned snapshot — what AmServer uses so every
  // query of one micro-batch (across its per-k sub-batches) sees a single
  // epoch.
  std::vector<TopKResult> submit_batch(
      const std::shared_ptr<const IndexSnapshot>& snap,
      const core::DigitMatrix& queries, int k);

  // Adapter for unpacked queries (each of index().stages() digits): packs
  // into a DigitMatrix — which validates digit range — and delegates.
  std::vector<TopKResult> submit_batch(
      std::span<const std::vector<int>> queries, int k);

  const ServingMetrics& metrics() const { return metrics_; }
  // The metrics object is internally synchronized; AmServer records its
  // admission outcomes into the same instance through this accessor.
  ServingMetrics& metrics() { return metrics_; }
  void reset_metrics() { metrics_.reset(); }

 private:
  // The runner: answers queries [first, first+count) of `queries` (packed
  // in index geometry) in one segment sweep and writes results into `out`
  // (count slots, default-initialised).  Scan time is shared evenly across
  // the tile's queries; merge time is per query.
  void run_tile_packed(const IndexSnapshot& snap,
                       const core::DigitMatrix& queries, int first, int count,
                       int k, std::span<TopKResult> out) const;

  const ShardedIndex& index_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads == 1
  // mutable: the const query paths record per-shard scan times (lock-free
  // instrument writes — logically observation, not mutation).
  mutable ServingMetrics metrics_;
};

}  // namespace tdam::runtime
