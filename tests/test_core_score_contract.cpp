// Layer-0 score contract tests: metric metadata (names, wire ids, ordering
// direction, mismatch-family flag), the deterministic (score, row) total
// order, the canonical cosine_score expression, and the cosine backend's
// cached norms through clear/re-store.
#include "core/backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/cosine_backend.h"
#include "core/digit_matrix.h"
#include "core/exact_backend.h"

namespace tdam::core {
namespace {

TEST(CoreScoreContract, MetricMetadataAndWireIds) {
  EXPECT_STREQ(metric_name(DigitMetric::kMismatchCount), "mismatch");
  EXPECT_STREQ(metric_name(DigitMetric::kL1), "l1");
  EXPECT_STREQ(metric_name(DigitMetric::kCosine), "cosine");
  EXPECT_STREQ(metric_name(DigitMetric::kDot), "dot");

  // Enumerator values are the v2 wire ids; metric_from_wire is the inverse.
  for (auto m : {DigitMetric::kMismatchCount, DigitMetric::kL1,
                 DigitMetric::kCosine, DigitMetric::kDot})
    EXPECT_EQ(metric_from_wire(static_cast<std::uint8_t>(m)), m);
  EXPECT_THROW(metric_from_wire(4), std::invalid_argument);
  EXPECT_THROW(metric_from_wire(0xFF), std::invalid_argument);

  EXPECT_EQ(metric_order(DigitMetric::kMismatchCount), ScoreOrder::kAscending);
  EXPECT_EQ(metric_order(DigitMetric::kL1), ScoreOrder::kAscending);
  EXPECT_EQ(metric_order(DigitMetric::kCosine), ScoreOrder::kDescending);
  EXPECT_EQ(metric_order(DigitMetric::kDot), ScoreOrder::kDescending);

  EXPECT_TRUE(metric_is_mismatch_family(DigitMetric::kMismatchCount));
  EXPECT_TRUE(metric_is_mismatch_family(DigitMetric::kL1));
  EXPECT_FALSE(metric_is_mismatch_family(DigitMetric::kCosine));
  EXPECT_FALSE(metric_is_mismatch_family(DigitMetric::kDot));
}

TEST(CoreScoreContract, ScoreBeforeIsDirectionAwareWithRowTieBreak) {
  const TopKEntry low{3, 1.0}, high{5, 2.0};
  EXPECT_TRUE(score_before(low, high, ScoreOrder::kAscending));
  EXPECT_FALSE(score_before(high, low, ScoreOrder::kAscending));
  EXPECT_TRUE(score_before(high, low, ScoreOrder::kDescending));
  EXPECT_FALSE(score_before(low, high, ScoreOrder::kDescending));
  // Equal scores: the lower row wins in BOTH directions (determinism).
  const TopKEntry tie_a{2, 7.0}, tie_b{9, 7.0};
  EXPECT_TRUE(score_before(tie_a, tie_b, ScoreOrder::kAscending));
  EXPECT_TRUE(score_before(tie_a, tie_b, ScoreOrder::kDescending));
  EXPECT_FALSE(score_before(tie_b, tie_a, ScoreOrder::kDescending));
  EXPECT_FALSE(score_before(tie_a, tie_a, ScoreOrder::kAscending));
}

TEST(CoreScoreContract, CosineScoreEdgeCases) {
  // Zero-norm vectors score 0 against everything, including each other.
  EXPECT_EQ(cosine_score(0, 0, 25), 0.0);
  EXPECT_EQ(cosine_score(0, 25, 0), 0.0);
  EXPECT_EQ(cosine_score(0, 0, 0), 0.0);
  // Parallel vectors score exactly 1 (3,4 against 6,8).
  EXPECT_EQ(cosine_score(3 * 6 + 4 * 8, 25, 100), 1.0);
  // Orthogonal digit patterns score exactly 0.
  EXPECT_EQ(cosine_score(0, 9, 16), 0.0);
}

TEST(CoreScoreContract, PackedNormSqMasksTailFields) {
  // 5 2-bit digits: one full word would hold 16, so the final (only) word
  // has 11 unused fields that must not contribute.
  DigitMatrix matrix(5, 4);
  const std::vector<int> digits{3, 1, 0, 2, 3};
  matrix.append(digits);
  std::int64_t want = 0;
  for (int d : digits) want += static_cast<std::int64_t>(d) * d;
  EXPECT_EQ(packed_norm_sq(matrix.row_words(0), matrix.bits_per_digit(),
                           matrix.tail_mask()),
            want);
  EXPECT_EQ(packed_norm_sq(matrix.pack(digits), matrix.bits_per_digit(),
                           matrix.tail_mask()),
            want);
}

TEST(CoreScoreContract, CosineBackendNormCacheSurvivesClearAndRestore) {
  CosineBackend backend(4, 4);
  EXPECT_EQ(backend.metric(), DigitMetric::kCosine);
  EXPECT_EQ(backend.order(), ScoreOrder::kDescending);
  backend.store(std::vector<int>{1, 0, 0, 0});
  backend.store(std::vector<int>{0, 2, 0, 0});
  backend.clear();
  EXPECT_EQ(backend.rows(), 0);
  // Re-store after clear: the norm cache must track the matrix exactly
  // (this is the path compaction rebuilds take).
  backend.store(std::vector<int>{2, 2, 0, 0});   // row 0: parallel to query
  backend.store(std::vector<int>{0, 0, 3, 3});   // row 1: orthogonal
  backend.store(std::vector<int>{0, 0, 0, 0});   // row 2: zero norm
  const auto top = backend.search_topk(std::vector<int>{1, 1, 0, 0}, 3);
  ASSERT_EQ(top.entries.size(), 3u);
  // Bit-exact against the canonical expression (dot=4, |q|²=2, |row|²=8 —
  // ~1.0 up to the sqrt rounding, which is exactly the point of routing
  // every consumer through cosine_score).
  EXPECT_EQ(top.entries[0], (TopKEntry{0, cosine_score(4, 2, 8)}));
  EXPECT_NEAR(top.entries[0].score, 1.0, 1e-15);
  // Orthogonal and zero-norm both score 0.0; tie breaks on lower row.
  EXPECT_EQ(top.entries[1], (TopKEntry{1, 0.0}));
  EXPECT_EQ(top.entries[2], (TopKEntry{2, 0.0}));
  EXPECT_GT(backend.resident_bytes(), 0u);
}

TEST(CoreScoreContract, SimilarityBackendsRejectNonzeroMismatchFraction) {
  CosineBackend cosine(4, 4);
  DotProductBackend dot(4, 4);
  for (int r = 0; r < 3; ++r) {
    cosine.store(std::vector<int>{1, 2, 3, 0});
    dot.store(std::vector<int>{1, 2, 3, 0});
  }
  EXPECT_NO_THROW(cosine.query_cost(0.0));
  EXPECT_NO_THROW(dot.query_cost(0.0));
  EXPECT_THROW(cosine.query_cost(0.1), std::invalid_argument);
  EXPECT_THROW(dot.query_cost(0.1), std::invalid_argument);
  EXPECT_THROW(cosine.query_cost(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace tdam::core
