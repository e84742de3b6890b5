// Per-layer measurements for the traced run.  Each function times one
// layer from outside, through that layer's public calls, on the run's
// generated inputs, and records a span per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "inputs.h"
#include "runtime/sharded_index.h"
#include "spans.h"

namespace servebench {

// core.kernels and core: kernels::mismatch_count_batch over every
// segment's packed matrix, then SimilarityBackend::search_topk_packed_batch
// at the index's query_tile, on the same queries.
struct ScanLayers {
  double kernel_us_per_query = 0.0;
  double kernel_ns_per_row = 0.0;
  double kernel_gbytes_per_s = 0.0;  // packed bytes read by the kernel
  double topk_us_per_query = 0.0;
  double select_ratio = 0.0;  // top-k time over kernel-only time
};
ScanLayers measure_scan(const tdam::runtime::IndexSnapshot& snap,
                        const Inputs& inputs, int query_tile,
                        SpanLog::Track& track);

// runtime.engine: SearchEngine::submit_batch of 32 queries on a pinned
// snapshot at 2 threads and at 1 thread.
struct EngineLayer {
  double batch_ms = 0.0;  // median at kEngineThreads threads
  double scan_ms_p50 = 0.0;
  double merge_us_p50 = 0.0;
  double thread_scaling = 0.0;  // 1-thread batch time over 2-thread
  long wrong = 0;  // answers differing from the reference
  // Modeled-cost figures from TopKResult over the batch; they must repeat
  // exactly for the same inputs.
  bool modeled_repeat = false;  // 1-thread and 2-thread runs agree
  double modeled_passes_sum = 0.0;
  double modeled_latency_sum_s = 0.0;
  double modeled_energy_sum_j = 0.0;
  std::uint64_t modeled_digest = 0;  // 48-bit hash of every modeled value
};
EngineLayer measure_engine(const tdam::runtime::ShardedIndex& index,
                           const Inputs& inputs, Reference& reference,
                           SpanLog::Track& track);

// net: protocol encode and decode of one QUERY and its reply, per query.
double measure_codec_us(const Inputs& inputs, SpanLog::Track& track);

// runtime.index: ShardedIndex::store of write-stream rows into a freshly
// loaded private index, its layout afterwards, compact_now and pin.
struct IndexLayer {
  double store_us_p50 = 0.0;
  double store_us_p99 = 0.0;
  double compact_ms = 0.0;
  double segments = 0.0;
  double delta_rows = 0.0;
  double pin_ns = 0.0;
};
IndexLayer measure_index(const tdam::core::BackendRegistry& registry,
                         const std::string& index_path, const Inputs& inputs,
                         SpanLog::Track& track);

}  // namespace servebench
