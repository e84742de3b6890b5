// The Table-I rival architectures as serving backends.
//
// DigitalPopcountModel and CrossbarCamModel were cost-formula silos: they
// priced a query but could not answer one.  These wrappers bolt each cost
// model onto a packed core::DigitMatrix, making them full
// core::SimilarityBackend implementations — exact digit-mismatch distances
// (both architectures compare digits exactly; only their readout physics
// differ) with the existing latency/energy formulas as the QueryCostModel
// hook.  The serving runtime can then shard, batch and meter TD-AM, digital
// and CAM serving on identical workloads.
#pragma once

#include "baselines/crossbar_cam.h"
#include "baselines/digital_popcount.h"
#include "core/backend.h"
#include "core/digit_matrix.h"

namespace tdam::baselines {

// All-digital comparator array: XNOR-reduce per digit + popcount adder tree,
// `lanes` rows compared per pipeline cycle.
class DigitalPopcountBackend final : public core::SimilarityBackend {
 public:
  DigitalPopcountBackend(int stages, int levels, int lanes = 128,
                         DigitalPopcountParams params = {},
                         core::ScanOptions scan = {});

  std::string name() const override { return "digital"; }
  core::DigitMetric metric() const override {
    return core::DigitMetric::kMismatchCount;
  }
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

  std::vector<core::BackendTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override;
  int query_tile() const override { return scan_.query_tile; }

  void adopt_matrix(core::DigitMatrix matrix) override;
  const core::DigitMatrix* packed_view() const override { return &matrix_; }

  core::QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override {
    return matrix_.resident_bytes();
  }

  const DigitalPopcountModel& model() const { return model_; }

 private:
  core::DigitMatrix matrix_;
  int lanes_;
  int digit_bits_;  // true operand width (not the padded storage width)
  DigitalPopcountModel model_;
  core::ScanOptions scan_;
};

// Current-domain crossbar CAM: one multi-bit cell per digit, summed
// mismatch current sensed by a per-row ADC; rows beyond one `array_rows`
// crossbar fold into sequential sense windows.
class CrossbarCamBackend final : public core::SimilarityBackend {
 public:
  CrossbarCamBackend(int stages, int levels, int array_rows = 128,
                     CrossbarCamParams params = {},
                     core::ScanOptions scan = {});

  std::string name() const override { return "cam"; }
  core::DigitMetric metric() const override {
    return core::DigitMetric::kMismatchCount;
  }
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

  std::vector<core::BackendTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override;
  int query_tile() const override { return scan_.query_tile; }

  void adopt_matrix(core::DigitMatrix matrix) override;
  const core::DigitMatrix* packed_view() const override { return &matrix_; }

  core::QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override {
    return matrix_.resident_bytes();
  }

  const CrossbarCamModel& model() const { return model_; }

 private:
  core::DigitMatrix matrix_;
  int array_rows_;
  CrossbarCamModel model_;
  core::ScanOptions scan_;
};

}  // namespace tdam::baselines
