#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

namespace tdam::runtime {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

SearchEngine::SearchEngine(const ShardedIndex& index, EngineOptions options)
    : index_(index), options_(options) {
  if (options_.threads < 1)
    throw std::invalid_argument("SearchEngine: threads must be >= 1");
  if (options_.threads > 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
  // Pre-create the per-shard scan instruments so the per-query record path
  // (pool workers) never takes the registry's creation mutex.
  metrics_.ensure_shards(index_.num_shards());
}

void SearchEngine::run_tile_packed(const IndexSnapshot& snap,
                                   const core::DigitMatrix& queries, int first,
                                   int count, int k,
                                   std::span<TopKResult> out) const {
  const auto t0 = std::chrono::steady_clock::now();
  const double stages = static_cast<double>(index_.stages());
  const auto metric = index_.metric();
  const auto n = static_cast<std::size_t>(count);
  // Modeled hardware, held per query: a shard's segments share one
  // physical bank, so their costs add up as sequential passes; shards are
  // parallel banks (latency is the slowest, energy sums, passes report the
  // worst bank's fold count).
  std::vector<std::vector<core::TopKEntry>> merged(n);
  for (auto& m : merged)
    m.reserve(static_cast<std::size_t>(k) *
              static_cast<std::size_t>(snap.segments));
  std::vector<double> shard_latency(n), shard_energy(n);
  std::vector<int> shard_passes(n);
  for (std::size_t shard_idx = 0; shard_idx < snap.shards.size();
       ++shard_idx) {
    const auto& shard = snap.shards[shard_idx];
    const auto shard_t0 = std::chrono::steady_clock::now();
    std::fill(shard_latency.begin(), shard_latency.end(), 0.0);
    std::fill(shard_energy.begin(), shard_energy.end(), 0.0);
    std::fill(shard_passes.begin(), shard_passes.end(), 0);
    for (const auto& seg : shard) {
      if (seg->rows() == 0) continue;
      // The whole tile sweeps this segment in one call — the backend's
      // tiled scan streams the stored rows once, rescanning each cache-hot
      // block for every query of the tile.
      const auto locals =
          seg->backend().search_topk_packed_batch(queries, first, count, k);
      for (std::size_t q = 0; q < n; ++q) {
        const auto& local = locals[q];
        for (const auto& e : local.entries)
          merged[q].push_back({seg->global_id(e.row), e.score});
        // For mismatch-family metrics each segment is costed by its own
        // QueryCostModel hook at the measured mismatch fraction (clamped —
        // an L1-metric backend can report a mean score above one per
        // digit).  Similarity metrics have no mismatch fraction, so their
        // segments are costed at 0 — similarity backends throw on anything
        // else.
        const double mismatch_fraction =
            core::metric_is_mismatch_family(metric)
                ? std::clamp(local.mean_score / stages, 0.0, 1.0)
                : 0.0;
        const auto cost = seg->backend().query_cost(mismatch_fraction);
        shard_latency[q] += cost.latency;
        shard_energy[q] += cost.energy;
        shard_passes[q] += cost.passes;
      }
    }
    for (std::size_t q = 0; q < n; ++q) {
      out[q].modeled_latency = std::max(out[q].modeled_latency,
                                        shard_latency[q]);
      out[q].modeled_energy += shard_energy[q];
      out[q].modeled_passes = std::max(out[q].modeled_passes,
                                       shard_passes[q]);
    }
    // The tile swept this shard once; charge each query an even share so
    // the per-shard family counts one observation per query.
    const double shard_share =
        seconds_since(shard_t0) / static_cast<double>(count);
    for (int q = 0; q < count; ++q)
      metrics_.record_shard_scan(static_cast<int>(shard_idx), shard_share);
  }
  // The scan served the whole tile at once; charge each query an even
  // share so per-query stage histograms stay meaningful.
  const double scan_share = seconds_since(t0) / static_cast<double>(count);
  for (std::size_t q = 0; q < n; ++q) {
    // Global merge under the same total order the segments used: score in
    // the metric's direction, global row id breaks ties.
    const auto t1 = std::chrono::steady_clock::now();
    auto& m = merged[q];
    const auto keep =
        std::min<std::size_t>(static_cast<std::size_t>(k), m.size());
    std::partial_sort(m.begin(),
                      m.begin() + static_cast<std::ptrdiff_t>(keep), m.end(),
                      core::ScoreComparator{core::metric_order(metric)});
    m.resize(keep);
    out[q].entries = std::move(m);
    out[q].scan_seconds = scan_share;
    out[q].merge_seconds = seconds_since(t1);
    out[q].wall_seconds = scan_share + out[q].merge_seconds;
  }
}

std::vector<TopKResult> SearchEngine::submit_batch(
    const core::DigitMatrix& queries, int k) {
  return submit_batch(index_.pin(), queries, k);
}

std::vector<TopKResult> SearchEngine::submit_batch(
    const std::shared_ptr<const IndexSnapshot>& snap,
    const core::DigitMatrix& queries, int k) {
  if (k < 1)
    throw std::invalid_argument("SearchEngine::submit_batch: k must be >= 1");
  if (queries.cols() != index_.stages())
    throw std::invalid_argument(
        "SearchEngine::submit_batch: queries have " +
        std::to_string(queries.cols()) + " digits, index stores " +
        std::to_string(index_.stages()));
  // The segments scan queries packed exactly as they pack rows.  A batch
  // built over another alphabet is repacked once into index geometry;
  // append() rejects any digit outside the index's alphabet.
  if (queries.levels() != index_.levels()) {
    core::DigitMatrix repacked(index_.stages(), index_.levels());
    std::vector<int> digits(static_cast<std::size_t>(index_.stages()));
    for (int r = 0; r < queries.rows(); ++r) {
      queries.unpack_row_into(r, digits);
      repacked.append(digits);
    }
    return submit_batch(snap, repacked, k);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(queries.rows());
  const IndexSnapshot& view = *snap;
  std::vector<TopKResult> results(n);
  // One task per query tile, each sweeping the segments once for its whole
  // tile; results are bit-identical for any tile size and thread count
  // (pinned by the runtime determinism tests).
  const auto out = std::span<TopKResult>(results);
  const auto tile = static_cast<std::size_t>(std::max(1, index_.query_tile()));
  const auto run_tile = [&](std::size_t first) {
    const auto count = std::min(tile, n - first);
    run_tile_packed(view, queries, static_cast<int>(first),
                    static_cast<int>(count), k, out.subspan(first, count));
  };
  if (pool_) {
    std::vector<std::future<void>> pending;
    pending.reserve((n + tile - 1) / tile);
    for (std::size_t i = 0; i < n; i += tile)
      pending.push_back(pool_->submit([&run_tile, i] { run_tile(i); }));
    // Every task finishes before the frame it references unwinds; only
    // then rethrow the first task exception.
    for (auto& f : pending) f.wait();
    for (auto& f : pending) f.get();
  } else {
    for (std::size_t i = 0; i < n; i += tile) run_tile(i);
  }

  BatchStats stats;
  stats.queries = static_cast<int>(n);
  stats.wall_seconds = seconds_since(t0);
  for (const auto& r : results) {
    metrics_.record_query_wall(r.wall_seconds);
    // The engine owns the scan/merge stage histograms (it has the only
    // honest clocks for them); AmServer adds queue_wait/batch_wait on top.
    StageTimings stage_times;
    stage_times.scan = r.scan_seconds;
    stage_times.merge = r.merge_seconds;
    metrics_.record_stage_times(stage_times);
    stats.modeled_latency += r.modeled_latency;
    stats.modeled_energy += r.modeled_energy;
  }
  metrics_.record_batch(stats);
  metrics_.set_resident_index_bytes(view.resident_bytes());
  for (std::size_t s = 0; s < view.shards.size(); ++s)
    metrics_.set_shard_segments(static_cast<int>(s), view.shards[s].size());
  return results;
}

std::vector<TopKResult> SearchEngine::submit_batch(
    std::span<const std::vector<int>> queries, int k) {
  core::DigitMatrix packed(index_.stages(), index_.levels());
  for (const auto& q : queries) packed.append(q);  // validates digit range
  return submit_batch(packed, k);
}

}  // namespace tdam::runtime
