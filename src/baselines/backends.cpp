#include "baselines/backends.h"

#include <stdexcept>

namespace tdam::baselines {

namespace {
int operand_bits_for(int levels) {
  int bits = 1;
  while ((1 << bits) < levels) ++bits;
  return bits;
}
}  // namespace

DigitalPopcountBackend::DigitalPopcountBackend(int stages, int levels,
                                               int lanes,
                                               DigitalPopcountParams params,
                                               core::ScanOptions scan)
    : matrix_(stages, levels),
      lanes_(lanes),
      digit_bits_(operand_bits_for(levels)),
      model_(params),
      scan_(scan) {
  if (lanes < 1)
    throw std::invalid_argument("DigitalPopcountBackend: lanes must be >= 1");
}

std::vector<core::BackendTopK> DigitalPopcountBackend::search_topk_packed_batch(
    const core::DigitMatrix& queries, int first, int count, int k) const {
  // The comparator array computes exact digit mismatches; latency/energy of
  // a full query come from the query_cost hook, not per-row accounting, so
  // the tiled software scan is the whole answer.
  return core::exhaustive_topk_packed_batch(
      matrix_, queries, first, count, k, core::DigitMetric::kMismatchCount,
      scan_);
}

void DigitalPopcountBackend::adopt_matrix(core::DigitMatrix matrix) {
  core::check_adopt_geometry(*this, matrix,
                             "DigitalPopcountBackend::adopt_matrix");
  matrix_ = std::move(matrix);
}

core::QueryCost DigitalPopcountBackend::query_cost(
    double mismatch_fraction) const {
  if (mismatch_fraction < 0.0 || mismatch_fraction > 1.0)
    throw std::invalid_argument(
        "DigitalPopcountBackend::query_cost: bad mismatch fraction");
  core::QueryCost out;
  if (matrix_.rows() == 0) return out;
  const auto cost =
      model_.query_cost(matrix_.cols(), digit_bits_, matrix_.rows(), lanes_);
  out.latency = cost.latency;
  out.energy = cost.energy;
  out.passes = (matrix_.rows() + lanes_ - 1) / lanes_;
  return out;
}

CrossbarCamBackend::CrossbarCamBackend(int stages, int levels, int array_rows,
                                       CrossbarCamParams params,
                                       core::ScanOptions scan)
    : matrix_(stages, levels),
      array_rows_(array_rows),
      model_(params),
      scan_(scan) {
  if (array_rows < 1)
    throw std::invalid_argument(
        "CrossbarCamBackend: array_rows must be >= 1");
}

std::vector<core::BackendTopK> CrossbarCamBackend::search_topk_packed_batch(
    const core::DigitMatrix& queries, int first, int count, int k) const {
  return core::exhaustive_topk_packed_batch(
      matrix_, queries, first, count, k, core::DigitMetric::kMismatchCount,
      scan_);
}

void CrossbarCamBackend::adopt_matrix(core::DigitMatrix matrix) {
  core::check_adopt_geometry(*this, matrix,
                             "CrossbarCamBackend::adopt_matrix");
  matrix_ = std::move(matrix);
}

core::QueryCost CrossbarCamBackend::query_cost(
    double mismatch_fraction) const {
  core::QueryCost out;
  if (matrix_.rows() == 0) return out;
  // search_cost validates the mismatch fraction and scales energy with the
  // total row count; latency folds across sequential sense windows when the
  // stored set overfills one crossbar.
  const auto cost =
      model_.search_cost(matrix_.rows(), matrix_.cols(), mismatch_fraction);
  out.passes = (matrix_.rows() + array_rows_ - 1) / array_rows_;
  out.latency = static_cast<double>(out.passes) * cost.latency;
  out.energy = cost.energy;
  return out;
}

}  // namespace tdam::baselines
