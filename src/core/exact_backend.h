// Pure-software exact-distance reference backend.
//
// No hardware model — just the packed DigitMatrix and a brute-force scan.
// It serves two roles: the ground truth every hardware-modeled backend's
// top-k must match exactly (backend-parity tests), and the fastest software
// path when only answers matter.  The default metric is the AM's native
// digit-mismatch count; Metric::kL1 gives the Manhattan distance that
// thermometer-coded exact-match storage realises (hdc's kL1Digits kernel).
#pragma once

#include "core/backend.h"
#include "core/digit_matrix.h"

namespace tdam::core {

class ExactL1Backend final : public SimilarityBackend {
 public:
  ExactL1Backend(int stages, int levels,
                 DigitMetric metric = DigitMetric::kMismatchCount,
                 ScanOptions scan = {});

  std::string name() const override {
    return metric_ == DigitMetric::kMismatchCount ? "exact" : "exact-l1";
  }
  DigitMetric metric() const override { return metric_; }
  int stages() const override { return matrix_.cols(); }
  int levels() const override { return matrix_.levels(); }
  int rows() const override { return matrix_.rows(); }

  int store(std::span<const int> digits) override {
    return matrix_.append(digits);
  }
  void clear() override { matrix_.clear(); }
  std::vector<int> row_digits(int row) const override {
    return matrix_.unpack_row(row);
  }

  std::vector<BackendTopK> search_topk_packed_batch(const DigitMatrix& queries,
                                                    int first, int count,
                                                    int k) const override {
    return exhaustive_topk_packed_batch(matrix_, queries, first, count, k,
                                        metric_, scan_);
  }
  int query_tile() const override { return scan_.query_tile; }

  void adopt_matrix(DigitMatrix matrix) override {
    check_adopt_geometry(*this, matrix, "ExactL1Backend::adopt_matrix");
    matrix_ = std::move(matrix);
  }
  const DigitMatrix* packed_view() const override { return &matrix_; }

  // Software reference: no modeled hardware.  One "pass" (the scan), zero
  // joules and seconds on the modeled-cost axis.
  QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override {
    return matrix_.resident_bytes();
  }

 private:
  DigitMetric metric_;
  DigitMatrix matrix_;
  ScanOptions scan_;
};

}  // namespace tdam::core
