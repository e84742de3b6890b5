// The backend-agnostic similarity-search contract.
//
// Every score engine in this repo — the calibrated TD-AM model, the
// all-digital popcount comparator, the current-domain crossbar CAM, the
// pure-software reference, the cosine/dot-product similarity engines —
// answers the same question: store digit vectors, then return the k best
// stored rows to a query under a digit metric.  SimilarityBackend is that
// question as an interface, so the serving runtime (runtime::ShardedIndex /
// SearchEngine) can shard and batch over any of them interchangeably, and
// one bench run can compare TD-AM serving against its Table-I rivals on the
// identical workload.
//
// The score contract (Layer 0 invariant):
//  * every hit carries a double `score`;
//  * each metric declares its ordering direction (ScoreOrder) — distances
//    sort ascending (lower is better), similarities sort descending;
//  * ties break on the lower row index, so the total order
//    (score direction-aware, then row) is deterministic.  Every backend and
//    the runtime's cross-shard merge use exactly this order, which is what
//    makes results thread-count-, shard-count- and backend-invariant.
//
// Two cost views per backend:
//  * each search result carries the backend's *native per-search*
//    latency/energy (e.g. the AM's slowest-chain delay), zero where no
//    native model exists;
//  * query_cost is the QueryCostModel hook: modeled latency/energy/passes
//    for one full query over the currently stored rows on the backend's
//    physical array, given a measured mismatch fraction — what the serving
//    metrics aggregate.  Only mismatch-family metrics have a meaningful
//    mismatch fraction; similarity backends are always costed at 0.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tdam::core {

// Which way a metric's scores sort: kAscending for distances (lower is
// better: mismatch count, L1), kDescending for similarities (higher is
// better: cosine, dot product).
enum class ScoreOrder {
  kAscending,
  kDescending,
};

// The digit metric a backend computes.  Backends sharing a metric are exact
// drop-in replacements for each other (identical (score, row) top-k);
// metrics only differ, never backends within one.  Enumerator values are
// the wire ids carried by QUERY replies — append-only, never renumber.
enum class DigitMetric : std::uint8_t {
  kMismatchCount = 0,  // # of differing digits — the AM's native kernel
  kL1 = 1,             // sum |a-b| — what thermometer-coded storage realises
  kCosine = 2,         // dot/(|a||b|) over digit values — COSIME-style AM
  kDot = 3,            // raw integer dot product — the TD-CiM MVM primitive
};

// Sort direction of a metric's scores.
constexpr ScoreOrder metric_order(DigitMetric metric) {
  switch (metric) {
    case DigitMetric::kMismatchCount:
    case DigitMetric::kL1:
      return ScoreOrder::kAscending;
    case DigitMetric::kCosine:
    case DigitMetric::kDot:
      return ScoreOrder::kDescending;
  }
  return ScoreOrder::kAscending;  // unreachable; keeps -Wreturn-type quiet
}

// True for metrics whose mean score over the stored set is a digit-mismatch
// surrogate the hardware cost models understand (pulse-kill probability in
// the TD chains).  Similarity metrics must NOT be folded into those models.
constexpr bool metric_is_mismatch_family(DigitMetric metric) {
  return metric == DigitMetric::kMismatchCount || metric == DigitMetric::kL1;
}

// Stable lower-case metric name for logs, JSON and Prometheus labels.
const char* metric_name(DigitMetric metric);

// Inverse of the wire id in DigitMetric's enumerator values; throws
// std::invalid_argument on an id no metric claims.
DigitMetric metric_from_wire(std::uint8_t id);

// One (row, score) hit.
struct TopKEntry {
  int row = -1;
  double score = 0.0;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.row == b.row && a.score == b.score;
  }
};

// The deterministic total order on hits: score in the metric's direction,
// then lower row index.  This is THE comparator — every backend's
// partial_sort and the runtime's cross-shard merge call it, never a raw
// score compare.
constexpr bool score_before(const TopKEntry& a, const TopKEntry& b,
                            ScoreOrder order) {
  if (a.score != b.score) {
    return order == ScoreOrder::kAscending ? a.score < b.score
                                           : a.score > b.score;
  }
  return a.row < b.row;
}

// score_before as a stateful comparator for the <algorithm> sorts.
struct ScoreComparator {
  ScoreOrder order = ScoreOrder::kAscending;
  constexpr bool operator()(const TopKEntry& a, const TopKEntry& b) const {
    return score_before(a, b, order);
  }
};

// Top-k search outcome: min(k, rows) hits in (score direction-aware, row)
// order.  latency/energy are the backend's native per-search model (all
// rows are evaluated regardless of k); mean_score averages the metric's
// score over ALL rows.  For mismatch-family metrics that mean is the
// workload's mismatch level and feeds the HW cost models; for similarity
// metrics it is reporting-only.
struct BackendTopK {
  std::vector<TopKEntry> entries;
  double latency = 0.0;
  double energy = 0.0;
  double mean_score = 0.0;
};

// Modeled cost of one query over the stored set on the backend's physical
// array (folded into `passes` sequential array passes when the set exceeds
// one array).
struct QueryCost {
  double latency = 0.0;  // s
  double energy = 0.0;   // J
  int passes = 0;
};

// Memory-hierarchy tuning for the packed exhaustive scans: how many queries
// of a batch ride one streaming pass over the stored rows (query_tile), and
// how many stored rows form one cache-resident block (row_block; 0 = auto,
// ~256 KiB of packed payload).  Pure performance knobs — results are
// bit-identical for any values.
struct ScanOptions {
  int query_tile = 8;
  int row_block = 0;
};

class SimilarityBackend {
 public:
  virtual ~SimilarityBackend() = default;

  virtual std::string name() const = 0;
  virtual DigitMetric metric() const = 0;
  virtual int stages() const = 0;  // digits per stored vector
  virtual int levels() const = 0;  // digit alphabet size
  virtual int rows() const = 0;

  // The metric's sort direction; what every consumer should order by.
  ScoreOrder order() const { return metric_order(metric()); }

  // Stores one vector of stages() digits in [0, levels()); returns the new
  // row index.  Throws std::invalid_argument on wrong length or
  // out-of-range digits.
  virtual int store(std::span<const int> digits) = 0;
  virtual void clear() = 0;

  // Read-back of a stored row (snapshots re-shard through this, so packed
  // backends need no duplicate unpacked copy).
  virtual std::vector<int> row_digits(int row) const = 0;

  // The min(k, rows()) best stored rows in (score, row) order; k must be
  // >= 1.  Not a backend hook: packs `query` into a one-row
  // DigitMatrix(stages(), levels()) — which validates its length and digit
  // range — and answers it through search_topk_packed_batch.
  BackendTopK search_topk(std::span<const int> query, int k) const;

  // THE search hook: answers query rows [first, first+count) of `queries`
  // (packed exactly as a DigitMatrix(stages(), levels()) packs a row), one
  // BackendTopK per query in batch order; k must be >= 1.  Results must be
  // bit-identical for any split of a batch into calls, so the serving
  // engine can hand any tile straight through.  Tiled backends stream each
  // stored row block once per call (exhaustive_topk_packed_batch); the
  // behavioral model answers the queries one by one.  Throws
  // std::invalid_argument on a mismatched packing or query range.
  virtual std::vector<BackendTopK> search_topk_packed_batch(
      const class DigitMatrix& queries, int first, int count, int k) const = 0;

  // How many queries the serving engine should group into one
  // search_topk_packed_batch call: tiled backends report their
  // ScanOptions::query_tile; a backend that answers query by query (no
  // stored-row reuse to exploit) reports 1.
  virtual int query_tile() const { return 1; }

  // Replaces the stored set wholesale with `matrix`, which must match this
  // backend's geometry (stages/levels fix the packing) — the mmap load
  // path.  A move plus any cache rebuild (e.g. cosine norms), so loading a
  // multi-GB segment is O(rows) integer work at worst, never a
  // digit-by-digit revalidation.  Throws std::invalid_argument on a
  // geometry mismatch (see check_adopt_geometry).
  virtual void adopt_matrix(class DigitMatrix matrix) = 0;

  // The backend's packed row store — what index persistence snapshots
  // without unpacking a single digit.
  virtual const class DigitMatrix* packed_view() const = 0;

  // QueryCostModel hook: modeled hardware cost of one query over the
  // current rows() at the given average digit-mismatch fraction.  Callers
  // must pass 0.0 for non-mismatch-family metrics (the fraction is
  // meaningless there); see metric_is_mismatch_family.
  virtual QueryCost query_cost(double mismatch_fraction) const = 0;

  // Bytes resident for the stored set (packed payload + bookkeeping).
  virtual std::size_t resident_bytes() const = 0;
};

// THE canonical cosine score: dot/(|a||b|) from the integer dot product and
// integer squared norms, 0.0 when either vector is all-zero.  Every cosine
// path (CosineBackend, exhaustive_topk, test references) must go through
// this one expression so the double rounding is identical everywhere and
// (score, row) order stays bit-identical across threads, shards and
// compaction.
inline double cosine_score(std::int64_t dot, std::int64_t a_norm_sq,
                           std::int64_t b_norm_sq) {
  if (a_norm_sq == 0 || b_norm_sq == 0) return 0.0;
  return static_cast<double>(dot) /
         (std::sqrt(static_cast<double>(a_norm_sq)) *
          std::sqrt(static_cast<double>(b_norm_sq)));
}

// Sum of squared digit values over one row of packed words (the final
// word's unused fields masked out) — the integer norm input of
// cosine_score.  `bits`/`tail_mask` come from the owning DigitMatrix.
std::int64_t packed_norm_sq(std::span<const std::uint32_t> words, int bits,
                            std::uint32_t tail_mask);

// One-query brute-force scan (the test reference): packs `query` — which
// validates its length and digit range, even on an empty store — and runs
// exhaustive_topk_packed_batch over that one row.
BackendTopK exhaustive_topk(const class DigitMatrix& matrix,
                            std::span<const int> query, int k,
                            DigitMetric metric);

// Throws std::invalid_argument (naming both geometries) unless `matrix`
// matches `backend`'s stages/levels exactly — the adopt_matrix precondition
// every override shares.
void check_adopt_geometry(const SimilarityBackend& backend,
                          const class DigitMatrix& matrix, const char* who);

// Query-block tiled scan: answers query rows [first, first+count) of
// `queries` against `matrix` under `metric`, streaming each row block of
// the stored set once per tile (kernels::*_tile) instead of once per
// query.  Scores from `matrix` under `metric` in the deterministic (score,
// row) order of the metric's direction, mean over all rows; bit-identical
// for any ScanOptions and any split of the batch.  For kCosine the
// stored-row norms are computed once per call instead of once per query.
std::vector<BackendTopK> exhaustive_topk_packed_batch(
    const class DigitMatrix& matrix, const class DigitMatrix& queries,
    int first, int count, int k, DigitMetric metric,
    const ScanOptions& scan = {});

}  // namespace tdam::core
