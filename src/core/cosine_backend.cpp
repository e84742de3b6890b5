#include "core/cosine_backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/kernels/kernels.h"

namespace tdam::core {

namespace {

void check_similarity_fraction(const char* who, double mismatch_fraction) {
  if (mismatch_fraction != 0.0)
    throw std::invalid_argument(
        std::string(who) +
        ": mismatch fraction must be 0 for a similarity metric (see "
        "metric_is_mismatch_family), got " +
        std::to_string(mismatch_fraction));
}

}  // namespace

QueryCost similarity_query_cost(const SimilarityArrayModel& model, int rows,
                                int stages) {
  QueryCost cost;
  cost.passes = rows == 0 ? 0
                          : (rows + model.array_rows - 1) / model.array_rows;
  cost.latency = static_cast<double>(cost.passes) * model.pass_latency;
  cost.energy = static_cast<double>(rows) * static_cast<double>(stages) *
                model.mac_energy;
  return cost;
}

CosineBackend::CosineBackend(int stages, int levels, SimilarityArrayModel model,
                             ScanOptions scan)
    : matrix_(stages, levels), model_(model), scan_(scan) {}

int CosineBackend::store(std::span<const int> digits) {
  const int row = matrix_.append(digits);  // validates length and range
  norms_sq_.push_back(packed_norm_sq(matrix_.row_words(row),
                                     matrix_.bits_per_digit(),
                                     matrix_.tail_mask()));
  return row;
}

void CosineBackend::clear() {
  matrix_.clear();
  norms_sq_.clear();
}

BackendTopK CosineBackend::topk_from_dots(std::span<const std::int64_t> dots,
                                          std::int64_t query_sq,
                                          int k) const {
  BackendTopK out;
  const int rows = static_cast<int>(dots.size());
  out.entries.reserve(dots.size());
  double sum = 0.0;
  for (int r = 0; r < rows; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double score = cosine_score(dots[i], norms_sq_[i], query_sq);
    out.entries.push_back({r, score});
    sum += score;
  }
  if (rows > 0) out.mean_score = sum / static_cast<double>(rows);
  const auto keep = std::min<std::size_t>(static_cast<std::size_t>(k),
                                          out.entries.size());
  std::partial_sort(out.entries.begin(),
                    out.entries.begin() + static_cast<std::ptrdiff_t>(keep),
                    out.entries.end(),
                    ScoreComparator{ScoreOrder::kDescending});
  out.entries.resize(keep);
  return out;
}

std::vector<BackendTopK> CosineBackend::search_topk_packed_batch(
    const DigitMatrix& queries, int first, int count, int k) const {
  if (k < 1)
    throw std::invalid_argument(
        "CosineBackend::search_topk_packed_batch: k must be >= 1");
  const auto rows = static_cast<std::size_t>(matrix_.rows());
  std::vector<std::int64_t> dots(static_cast<std::size_t>(count) * rows);
  // Validates the query packing and the [first, first+count) range.
  kernels::dot_product_tile(matrix_, queries, first, count, dots,
                            scan_.row_block);
  std::vector<BackendTopK> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int q = 0; q < count; ++q) {
    const std::int64_t query_sq =
        packed_norm_sq(queries.row_words(first + q), matrix_.bits_per_digit(),
                       matrix_.tail_mask());
    out.push_back(topk_from_dots(
        std::span<const std::int64_t>(dots).subspan(
            static_cast<std::size_t>(q) * rows, rows),
        query_sq, k));
  }
  return out;
}

void CosineBackend::adopt_matrix(DigitMatrix matrix) {
  check_adopt_geometry(*this, matrix, "CosineBackend::adopt_matrix");
  matrix_ = std::move(matrix);
  norms_sq_.assign(static_cast<std::size_t>(matrix_.rows()), 0);
  for (int r = 0; r < matrix_.rows(); ++r)
    norms_sq_[static_cast<std::size_t>(r)] =
        packed_norm_sq(matrix_.row_words(r), matrix_.bits_per_digit(),
                       matrix_.tail_mask());
}

QueryCost CosineBackend::query_cost(double mismatch_fraction) const {
  check_similarity_fraction("CosineBackend::query_cost", mismatch_fraction);
  return similarity_query_cost(model_, rows(), stages());
}

std::size_t CosineBackend::resident_bytes() const {
  return matrix_.resident_bytes() +
         norms_sq_.capacity() * sizeof(std::int64_t);
}

DotProductBackend::DotProductBackend(int stages, int levels,
                                     SimilarityArrayModel model,
                                     ScanOptions scan)
    : matrix_(stages, levels), model_(model), scan_(scan) {}

QueryCost DotProductBackend::query_cost(double mismatch_fraction) const {
  check_similarity_fraction("DotProductBackend::query_cost",
                            mismatch_fraction);
  return similarity_query_cost(model_, rows(), stages());
}

}  // namespace tdam::core
