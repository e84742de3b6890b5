// Similarity backends over the packed core: cosine and raw dot product.
//
// CosineBackend is the COSIME-style engine (arXiv:2207.12188 — in-FeFET-AM
// cosine similarity): the dot products run through the dispatched integer
// dot kernel over packed digits, and per-row squared norms are cached at
// store time, so a search is one kernel batch call plus one multiply-divide
// per row — the norm work is never repeated on the hot path.  Scores are
// cosine similarities in [0, 1] (digits are non-negative), sorted
// descending; a zero-norm vector scores 0 against everything.
//
// DotProductBackend exposes the raw integer dot product as a top-k metric —
// the associative-search face of the TD-CiM MVM primitive (arXiv:2209.11971,
// one homogeneous array serving both MVM and search).  core::mvm() is the
// same compute returning the full product vector instead of a top-k.
//
// Both carry their own modeled cost (array passes over array_rows rows,
// MAC energy per digit) and reject a nonzero mismatch fraction in
// query_cost: the mismatch-fraction feedback loop is a mismatch-family
// concept, and a caller folding similarity scores into it is a bug worth
// throwing at (see metric_is_mismatch_family).
#pragma once

#include "core/backend.h"
#include "core/digit_matrix.h"

namespace tdam::core {

// Modeled geometry/energy of one similarity array; shared by both backends
// and by mvm().  Defaults follow the repo's 128-row array convention.
struct SimilarityArrayModel {
  int array_rows = 128;        // rows evaluated per array pass
  double pass_latency = 8e-9;  // s per array pass (MAC + TDC readout)
  double mac_energy = 2.5e-14; // J per digit multiply-accumulate
};

// Modeled cost of `rows` x `stages` MACs folded into array passes.
QueryCost similarity_query_cost(const SimilarityArrayModel& model, int rows,
                                int stages);

class CosineBackend final : public SimilarityBackend {
 public:
  CosineBackend(int stages, int levels, SimilarityArrayModel model = {},
                ScanOptions scan = {});

  std::string name() const override { return "cosine"; }
  DigitMetric metric() const override { return DigitMetric::kCosine; }
  int stages() const override { return matrix_.cols(); }
  int levels() const override { return matrix_.levels(); }
  int rows() const override { return matrix_.rows(); }

  // Also caches the row's squared norm, so seal/compaction rebuilds (which
  // re-store through this interface) keep the cache exact.
  int store(std::span<const int> digits) override;
  void clear() override;
  std::vector<int> row_digits(int row) const override {
    return matrix_.unpack_row(row);
  }

  // Tiled override: one dot-kernel tile over the stored rows for the whole
  // query block, cached norms on top — never recomputes a row norm.
  std::vector<BackendTopK> search_topk_packed_batch(const DigitMatrix& queries,
                                                    int first, int count,
                                                    int k) const override;
  int query_tile() const override { return scan_.query_tile; }

  // Moves the matrix in and rebuilds the norm cache in one packed pass (no
  // per-digit re-validation, no re-store).
  void adopt_matrix(DigitMatrix matrix) override;
  const DigitMatrix* packed_view() const override { return &matrix_; }

  // Throws std::invalid_argument on a nonzero mismatch fraction: cosine has
  // no mismatch fraction, and callers must cost it at 0.0.
  QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override;

 private:
  // (dots, query norm) -> sorted top-k against the cached row norms.
  BackendTopK topk_from_dots(std::span<const std::int64_t> dots,
                             std::int64_t query_sq, int k) const;

  DigitMatrix matrix_;
  std::vector<std::int64_t> norms_sq_;  // one squared norm per stored row
  SimilarityArrayModel model_;
  ScanOptions scan_;
};

class DotProductBackend final : public SimilarityBackend {
 public:
  DotProductBackend(int stages, int levels, SimilarityArrayModel model = {},
                    ScanOptions scan = {});

  std::string name() const override { return "dot"; }
  DigitMetric metric() const override { return DigitMetric::kDot; }
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
                                        DigitMetric::kDot, scan_);
  }
  int query_tile() const override { return scan_.query_tile; }

  void adopt_matrix(DigitMatrix matrix) override {
    check_adopt_geometry(*this, matrix, "DotProductBackend::adopt_matrix");
    matrix_ = std::move(matrix);
  }
  const DigitMatrix* packed_view() const override { return &matrix_; }

  // Throws std::invalid_argument on a nonzero mismatch fraction, like
  // CosineBackend.
  QueryCost query_cost(double mismatch_fraction) const override;

  std::size_t resident_bytes() const override {
    return matrix_.resident_bytes();
  }

 private:
  DigitMatrix matrix_;
  SimilarityArrayModel model_;
  ScanOptions scan_;
};

}  // namespace tdam::core
