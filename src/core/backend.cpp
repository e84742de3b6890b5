#include "core/backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/digit_matrix.h"
#include "core/kernels/kernels.h"

namespace tdam::core {

const char* metric_name(DigitMetric metric) {
  switch (metric) {
    case DigitMetric::kMismatchCount:
      return "mismatch";
    case DigitMetric::kL1:
      return "l1";
    case DigitMetric::kCosine:
      return "cosine";
    case DigitMetric::kDot:
      return "dot";
  }
  return "unknown";
}

DigitMetric metric_from_wire(std::uint8_t id) {
  switch (id) {
    case 0:
      return DigitMetric::kMismatchCount;
    case 1:
      return DigitMetric::kL1;
    case 2:
      return DigitMetric::kCosine;
    case 3:
      return DigitMetric::kDot;
    default:
      throw std::invalid_argument("metric_from_wire: unknown metric id " +
                                  std::to_string(int{id}));
  }
}

std::int64_t packed_norm_sq(std::span<const std::uint32_t> words, int bits,
                            std::uint32_t tail_mask) {
  const std::uint32_t field_mask = (bits == 32) ? ~0u : ((1u << bits) - 1u);
  std::int64_t sum = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint32_t word = words[w];
    if (w == words.size() - 1) word &= tail_mask;
    for (int off = 0; off < 32; off += bits) {
      const auto field = static_cast<std::int64_t>((word >> off) & field_mask);
      sum += field * field;
    }
  }
  return sum;
}

namespace {

// Sorts the best `k` hits to the front in the metric's deterministic
// (score, row) order and drops the rest.
void keep_topk(BackendTopK& out, int k, DigitMetric metric) {
  const auto keep = std::min<std::size_t>(static_cast<std::size_t>(k),
                                          out.entries.size());
  std::partial_sort(out.entries.begin(),
                    out.entries.begin() + static_cast<std::ptrdiff_t>(keep),
                    out.entries.end(), ScoreComparator{metric_order(metric)});
  out.entries.resize(keep);
}

// One query's scored column -> BackendTopK.  These finalizers are the ONLY
// place exhaustive scan scores become (entries, mean_score).

BackendTopK topk_from_distances(std::span<const std::int32_t> dist, int k,
                                DigitMetric metric) {
  BackendTopK out;
  const int rows = static_cast<int>(dist.size());
  out.entries.reserve(dist.size());
  long isum = 0;
  for (int r = 0; r < rows; ++r) {
    const int d = dist[static_cast<std::size_t>(r)];
    out.entries.push_back({r, static_cast<double>(d)});
    isum += d;
  }
  if (rows > 0)
    out.mean_score = static_cast<double>(isum) / static_cast<double>(rows);
  keep_topk(out, k, metric);
  return out;
}

BackendTopK topk_from_dots(std::span<const std::int64_t> dots, int k) {
  BackendTopK out;
  const int rows = static_cast<int>(dots.size());
  out.entries.reserve(dots.size());
  double sum = 0.0;
  for (int r = 0; r < rows; ++r) {
    const auto score = static_cast<double>(dots[static_cast<std::size_t>(r)]);
    out.entries.push_back({r, score});
    sum += score;
  }
  if (rows > 0) out.mean_score = sum / static_cast<double>(rows);
  keep_topk(out, k, DigitMetric::kDot);
  return out;
}

BackendTopK topk_from_cosine(std::span<const std::int64_t> dots,
                             std::span<const std::int64_t> row_sq,
                             std::int64_t query_sq, int k) {
  BackendTopK out;
  const int rows = static_cast<int>(dots.size());
  out.entries.reserve(dots.size());
  double sum = 0.0;
  for (int r = 0; r < rows; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double score = cosine_score(dots[i], row_sq[i], query_sq);
    out.entries.push_back({r, score});
    sum += score;
  }
  if (rows > 0) out.mean_score = sum / static_cast<double>(rows);
  keep_topk(out, k, DigitMetric::kCosine);
  return out;
}

}  // namespace

std::vector<BackendTopK> exhaustive_topk_packed_batch(
    const DigitMatrix& matrix, const DigitMatrix& queries, int first,
    int count, int k, DigitMetric metric, const ScanOptions& scan) {
  if (k < 1)
    throw std::invalid_argument(
        "exhaustive_topk_packed_batch: k must be >= 1");
  const auto rows = static_cast<std::size_t>(matrix.rows());
  std::vector<BackendTopK> out;
  out.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
  if (metric_is_mismatch_family(metric)) {
    std::vector<std::int32_t> dist(static_cast<std::size_t>(count) * rows);
    if (metric == DigitMetric::kMismatchCount) {
      kernels::mismatch_count_tile(matrix, queries, first, count, dist,
                                   scan.row_block);
    } else {
      kernels::l1_distance_tile(matrix, queries, first, count, dist,
                                scan.row_block);
    }
    for (int q = 0; q < count; ++q)
      out.push_back(topk_from_distances(
          std::span<const std::int32_t>(dist).subspan(
              static_cast<std::size_t>(q) * rows, rows),
          k, metric));
    return out;
  }
  std::vector<std::int64_t> dots(static_cast<std::size_t>(count) * rows);
  kernels::dot_product_tile(matrix, queries, first, count, dots,
                            scan.row_block);
  if (metric == DigitMetric::kDot) {
    for (int q = 0; q < count; ++q)
      out.push_back(topk_from_dots(
          std::span<const std::int64_t>(dots).subspan(
              static_cast<std::size_t>(q) * rows, rows),
          k));
    return out;
  }
  // kCosine: stored-row norms are tile-invariant — compute them once per
  // call, not once per query.
  std::vector<std::int64_t> row_sq(rows);
  for (int r = 0; r < matrix.rows(); ++r)
    row_sq[static_cast<std::size_t>(r)] = packed_norm_sq(
        matrix.row_words(r), matrix.bits_per_digit(), matrix.tail_mask());
  for (int q = 0; q < count; ++q) {
    const std::int64_t query_sq =
        packed_norm_sq(queries.row_words(first + q), matrix.bits_per_digit(),
                       matrix.tail_mask());
    out.push_back(topk_from_cosine(
        std::span<const std::int64_t>(dots).subspan(
            static_cast<std::size_t>(q) * rows, rows),
        row_sq, query_sq, k));
  }
  return out;
}

BackendTopK exhaustive_topk(const DigitMatrix& matrix,
                            std::span<const int> query, int k,
                            DigitMetric metric) {
  DigitMatrix one(matrix.cols(), matrix.levels());
  one.append(query);  // validates digit count and range
  return std::move(
      exhaustive_topk_packed_batch(matrix, one, 0, 1, k, metric).front());
}

BackendTopK SimilarityBackend::search_topk(std::span<const int> query,
                                           int k) const {
  DigitMatrix one(stages(), levels());
  one.append(query);  // validates digit count and range
  return std::move(search_topk_packed_batch(one, 0, 1, k).front());
}

void check_adopt_geometry(const SimilarityBackend& backend,
                          const DigitMatrix& matrix, const char* who) {
  if (matrix.cols() != backend.stages() ||
      matrix.levels() != backend.levels())
    throw std::invalid_argument(
        std::string(who) + ": matrix holds " + std::to_string(matrix.cols()) +
        "-digit rows over " + std::to_string(matrix.levels()) +
        " levels, backend stores " + std::to_string(backend.stages()) +
        " digits over " + std::to_string(backend.levels()) + " levels");
}

}  // namespace tdam::core
