// Backend-parity and bridge tests: every backend in runtime::default_registry
// must be an exact drop-in for the others behind the sharded serving path,
// and hdc digit vectors must classify identically on any of them.
#include "runtime/backends.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "am/calibration.h"
#include "am/words.h"
#include "core/exact_backend.h"
#include "hdc/backend_bridge.h"
#include "hdc/model.h"
#include "runtime/engine.h"
#include "runtime/sharded_index.h"
#include "util/rng.h"

namespace tdam {
namespace {

constexpr int kLevels = 4;  // 2-bit digits, matching ChainConfig defaults

const am::CalibrationResult& calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(19);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

TEST(RuntimeDefaultRegistry, RegistersTheSixBuiltins) {
  const auto reg = runtime::default_registry(calibration(), {.stages = 16});
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"behavioral", "cam", "cosine", "digital",
                                      "dot", "exact"}));
  const std::map<std::string, core::DigitMetric> expected_metric = {
      {"behavioral", core::DigitMetric::kMismatchCount},
      {"cam", core::DigitMetric::kMismatchCount},
      {"cosine", core::DigitMetric::kCosine},
      {"digital", core::DigitMetric::kMismatchCount},
      {"dot", core::DigitMetric::kDot},
      {"exact", core::DigitMetric::kMismatchCount},
  };
  for (const auto& name : reg.names()) {
    const auto backend = reg.create(name);
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->metric(), expected_metric.at(name)) << name;
    EXPECT_EQ(backend->order(), core::metric_order(backend->metric()));
    EXPECT_EQ(backend->stages(), 16);
    EXPECT_EQ(backend->levels(), kLevels);  // 1 << cal.bits
    EXPECT_EQ(backend->rows(), 0);
  }
  EXPECT_THROW(runtime::default_registry(calibration(), {.stages = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      runtime::default_registry(calibration(),
                                {.stages = 16, .array_rows = 0}),
      std::invalid_argument);
}

// The satellite check: identical (score, global row) top-k from every
// registered mismatch-family backend on a shared random workload through
// the identical sharded serving path.  Similarity backends (cosine/dot)
// rank by a different metric, so they are covered by their own
// brute-force-reference tests instead.
TEST(RuntimeBackendParity, IdenticalTopKAcrossAllRegisteredBackends) {
  constexpr int kStages = 48, kRows = 120, kQueries = 24, kTopK = 7;
  const auto reg = runtime::default_registry(calibration(), {.stages = kStages});

  Rng rng(101);
  std::vector<std::vector<int>> stored, queries;
  for (int r = 0; r < kRows; ++r)
    stored.push_back(am::random_word(rng, kStages, kLevels));
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(am::random_word(rng, kStages, kLevels));

  std::map<std::string, std::vector<runtime::TopKResult>> results;
  for (const auto& name : reg.names()) {
    if (!core::metric_is_mismatch_family(reg.create(name)->metric()))
      continue;
    runtime::ShardedIndex index(reg, {.backend = name, .shards = 3});
    for (const auto& row : stored) index.store(row);
    runtime::SearchEngine engine(index, {.threads = 2});
    results[name] = engine.submit_batch(queries, kTopK);
  }

  ASSERT_EQ(results.size(), 4u);  // behavioral, cam, digital, exact
  const auto& reference = results.at("exact");
  for (const auto& [name, res] : results) {
    ASSERT_EQ(res.size(), reference.size()) << name;
    for (std::size_t q = 0; q < res.size(); ++q)
      EXPECT_EQ(res[q].entries, reference[q].entries)
          << "backend=" << name << " query=" << q;
  }
}

TEST(RuntimeBackendParity, ThreadCountInvariantForEveryBackend) {
  constexpr int kStages = 32, kRows = 64, kQueries = 16;
  const auto reg = runtime::default_registry(calibration(), {.stages = kStages});
  Rng rng(202);
  std::vector<std::vector<int>> stored, queries;
  for (int r = 0; r < kRows; ++r)
    stored.push_back(am::random_word(rng, kStages, kLevels));
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(am::random_word(rng, kStages, kLevels));

  for (const auto& name : reg.names()) {
    runtime::ShardedIndex index(reg, {.backend = name, .shards = 4});
    for (const auto& row : stored) index.store(row);
    runtime::SearchEngine seq(index, {.threads = 1});
    runtime::SearchEngine par(index, {.threads = 8});
    const auto a = seq.submit_batch(queries, 5);
    const auto b = par.submit_batch(queries, 5);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a[q].entries, b[q].entries) << "backend=" << name;
      EXPECT_DOUBLE_EQ(a[q].modeled_latency, b[q].modeled_latency) << name;
      EXPECT_DOUBLE_EQ(a[q].modeled_energy, b[q].modeled_energy) << name;
    }
  }
}

TEST(RuntimeBackendParity, PackedAndUnpackedSubmissionBitIdentical) {
  // Satellite property: submitting the same queries packed in a
  // core::DigitMatrix and unpacked as vector<int> must return bit-identical
  // (distance, global row) top-k on every registered backend, sequentially
  // and on a pool.
  constexpr int kStages = 40, kRows = 90, kQueries = 20, kTopK = 6;
  const auto reg = runtime::default_registry(calibration(), {.stages = kStages});
  Rng rng(505);
  std::vector<std::vector<int>> stored, queries;
  for (int r = 0; r < kRows; ++r)
    stored.push_back(am::random_word(rng, kStages, kLevels));
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(am::random_word(rng, kStages, kLevels));
  core::DigitMatrix packed(kStages, kLevels);
  for (const auto& q : queries) packed.append(q);

  for (const auto& name : reg.names()) {
    runtime::ShardedIndex index(reg, {.backend = name, .shards = 3});
    for (const auto& row : stored) index.store(row);
    for (int threads : {1, 8}) {
      runtime::SearchEngine engine(index, {.threads = threads});
      const auto a = engine.submit_batch(packed, kTopK);
      const auto b = engine.submit_batch(queries, kTopK);
      ASSERT_EQ(a.size(), b.size()) << name;
      for (std::size_t q = 0; q < a.size(); ++q) {
        EXPECT_EQ(a[q].entries, b[q].entries)
            << "backend=" << name << " threads=" << threads << " query=" << q;
        EXPECT_FALSE(a[q].entries.empty()) << name;
      }
    }
  }
}

TEST(RuntimeBackendParity, NarrowAlphabetBatchIsRepackedIntoIndexGeometry) {
  // A batch packed over a narrower alphabet (1-bit fields against the
  // index's 2-bit ones) is repacked once into index geometry: it returns
  // the same top-k as the index-geometry batch on every registered backend,
  // sequentially and on a pool.  A digit outside the index's alphabet is
  // refused.
  constexpr int kStages = 40, kRows = 90, kQueries = 20, kTopK = 6;
  const auto reg = runtime::default_registry(calibration(), {.stages = kStages});
  Rng rng(606);
  std::vector<std::vector<int>> stored;
  for (int r = 0; r < kRows; ++r)
    stored.push_back(am::random_word(rng, kStages, kLevels));
  core::DigitMatrix narrow(kStages, 2), index_geometry(kStages, kLevels);
  for (int q = 0; q < kQueries; ++q) {
    const auto word = am::random_word(rng, kStages, 2);
    narrow.append(word);
    index_geometry.append(word);
  }
  core::DigitMatrix out_of_range(kStages, 2 * kLevels);
  auto bad = am::random_word(rng, kStages, kLevels);
  bad[kStages / 2] = kLevels;
  out_of_range.append(bad);

  for (const auto& name : reg.names()) {
    runtime::ShardedIndex index(reg, {.backend = name, .shards = 3});
    for (const auto& row : stored) index.store(row);
    for (int threads : {1, 8}) {
      runtime::SearchEngine engine(index, {.threads = threads});
      const auto a = engine.submit_batch(narrow, kTopK);
      const auto b = engine.submit_batch(index_geometry, kTopK);
      ASSERT_EQ(a.size(), b.size()) << name;
      for (std::size_t q = 0; q < a.size(); ++q) {
        EXPECT_EQ(a[q].entries, b[q].entries)
            << "backend=" << name << " threads=" << threads << " query=" << q;
        EXPECT_FALSE(a[q].entries.empty()) << name;
      }
      EXPECT_THROW(engine.submit_batch(out_of_range, kTopK),
                   std::invalid_argument)
          << "backend=" << name << " threads=" << threads;
    }
  }
}

TEST(RuntimeBackendParity, QueryTileSizeNeverChangesResults) {
  // The memory-hierarchy knobs are pure performance knobs: any query_tile /
  // row_block combination must return bit-identical entries and modeled
  // costs on every registered backend, sequentially and on a pool.
  constexpr int kStages = 40, kRows = 70, kQueries = 13, kTopK = 5;
  Rng rng(707);
  std::vector<std::vector<int>> stored, queries;
  for (int r = 0; r < kRows; ++r)
    stored.push_back(am::random_word(rng, kStages, kLevels));
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(am::random_word(rng, kStages, kLevels));
  core::DigitMatrix packed(kStages, kLevels);
  for (const auto& q : queries) packed.append(q);

  const auto reference_reg =
      runtime::default_registry(calibration(), {.stages = kStages,
                                                .query_tile = 1});
  for (const auto& name : reference_reg.names()) {
    std::vector<std::vector<runtime::TopKResult>> runs;
    for (int tile : {1, 3, 8, 64}) {
      for (int row_block : {0, 1, 32}) {
        const auto reg = runtime::default_registry(
            calibration(),
            {.stages = kStages, .query_tile = tile, .row_block = row_block});
        runtime::ShardedIndex index(reg, {.backend = name, .shards = 3});
        for (const auto& row : stored) index.store(row);
        runtime::SearchEngine engine(index,
                                     {.threads = tile % 2 == 0 ? 4 : 1});
        runs.push_back(engine.submit_batch(packed, kTopK));
      }
    }
    const auto& reference = runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
      ASSERT_EQ(runs[i].size(), reference.size()) << name;
      for (std::size_t q = 0; q < reference.size(); ++q) {
        EXPECT_EQ(runs[i][q].entries, reference[q].entries)
            << "backend=" << name << " run=" << i << " query=" << q;
        EXPECT_DOUBLE_EQ(runs[i][q].modeled_latency,
                         reference[q].modeled_latency)
            << "backend=" << name << " run=" << i;
        EXPECT_DOUBLE_EQ(runs[i][q].modeled_energy,
                         reference[q].modeled_energy)
            << "backend=" << name << " run=" << i;
        EXPECT_EQ(runs[i][q].modeled_passes, reference[q].modeled_passes)
            << "backend=" << name << " run=" << i;
      }
    }
  }
}

TEST(RuntimeBackendCosts, PassFoldingMatchesArrayGeometry) {
  // 10 stored rows on 4-row arrays: ceil(10/4) = 3 sequential passes for
  // every hardware backend; the software reference always scans in one.
  const auto reg = runtime::default_registry(
      calibration(), {.stages = 16, .array_rows = 4, .array_stages = 16});
  Rng rng(303);
  for (const auto& name : reg.names()) {
    auto backend = reg.create(name);
    for (int r = 0; r < 10; ++r)
      backend->store(am::random_word(rng, 16, kLevels));
    if (!core::metric_is_mismatch_family(backend->metric())) {
      // Similarity backends have no mismatch fraction; the cost hook folds
      // the same array geometry but only accepts the 0.0 the engine sends
      // for non-mismatch metrics — a guard that would have caught the
      // mean-score folding bug.
      const auto cost = backend->query_cost(0.0);
      EXPECT_EQ(cost.passes, 3) << name;
      EXPECT_GT(cost.latency, 0.0) << name;
      EXPECT_GT(cost.energy, 0.0) << name;
      EXPECT_THROW(backend->query_cost(0.25), std::invalid_argument);
      EXPECT_THROW(backend->query_cost(-0.5), std::invalid_argument);
      continue;
    }
    const auto cost = backend->query_cost(0.25);
    if (name == "exact") {
      EXPECT_EQ(cost.passes, 1);
      EXPECT_EQ(cost.latency, 0.0);
      EXPECT_EQ(cost.energy, 0.0);
    } else {
      EXPECT_EQ(cost.passes, 3) << name;
      EXPECT_GT(cost.latency, 0.0) << name;
      EXPECT_GT(cost.energy, 0.0) << name;
    }
    EXPECT_THROW(backend->query_cost(-0.5), std::invalid_argument);
    EXPECT_THROW(backend->query_cost(1.01), std::invalid_argument);
  }
}

TEST(RuntimeBackendCosts, EveryBackendValidatesStoredDigits) {
  const auto reg = runtime::default_registry(calibration(), {.stages = 4});
  for (const auto& name : reg.names()) {
    auto backend = reg.create(name);
    EXPECT_THROW(backend->store(std::vector<int>{0, 1, 2}),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(backend->store(std::vector<int>{0, 1, 2, kLevels}),
                 std::invalid_argument)
        << name;
    EXPECT_EQ(backend->rows(), 0) << name;
    backend->store(std::vector<int>{0, 1, 2, 3});
    EXPECT_EQ(backend->row_digits(0), (std::vector<int>{0, 1, 2, 3})) << name;
  }
}

class RuntimeHdcBridge : public ::testing::Test {
 protected:
  static constexpr int kDims = 64, kClasses = 5, kTrain = 60;

  void SetUp() override {
    // Synthetic class-clustered encodings: per-class gaussian centers with
    // small within-class noise, enough structure for exact label agreement.
    Rng rng(404);
    std::vector<float> centers(kClasses * kDims);
    for (auto& c : centers) c = static_cast<float>(rng.gaussian());
    std::vector<float> enc(static_cast<std::size_t>(kTrain) * kDims);
    labels_.resize(kTrain);
    for (int i = 0; i < kTrain; ++i) {
      const int label = i % kClasses;
      labels_[static_cast<std::size_t>(i)] = label;
      for (int d = 0; d < kDims; ++d)
        enc[static_cast<std::size_t>(i) * kDims + static_cast<std::size_t>(d)] =
            centers[static_cast<std::size_t>(label) * kDims +
                    static_cast<std::size_t>(d)] +
            0.3f * static_cast<float>(rng.gaussian());
    }
    hdc::HdcModel model(kClasses, kDims);
    model.train(enc, labels_);
    qmodel_ = std::make_unique<hdc::QuantizedModel>(model, /*bits=*/2);
    for (int q = 0; q < 20; ++q) {
      std::vector<float> v(kDims);
      const int label = q % kClasses;
      for (int d = 0; d < kDims; ++d)
        v[static_cast<std::size_t>(d)] =
            centers[static_cast<std::size_t>(label) * kDims +
                    static_cast<std::size_t>(d)] +
            0.3f * static_cast<float>(rng.gaussian());
      query_digits_.push_back(qmodel_->quantize_query(v.data()));
    }
  }

  std::vector<int> labels_;
  std::unique_ptr<hdc::QuantizedModel> qmodel_;
  std::vector<std::vector<int>> query_digits_;
};

TEST_F(RuntimeHdcBridge, ClassifiesIdenticallyOnEveryBackend) {
  // Mismatch-family backends only: predict_digits is a mismatch-count
  // argmin, which cosine/dot rankings legitimately disagree with.
  const auto reg = runtime::default_registry(calibration(), {.stages = kDims});
  for (const auto& name : reg.names()) {
    auto backend = reg.create(name);
    if (!core::metric_is_mismatch_family(backend->metric())) continue;
    hdc::load_classes(*qmodel_, *backend);
    EXPECT_EQ(backend->rows(), kClasses) << name;
    for (const auto& digits : query_digits_)
      EXPECT_EQ(hdc::classify(*backend, digits),
                qmodel_->predict_digits(digits))
          << name;
  }
}

TEST_F(RuntimeHdcBridge, LoadClassesValidates) {
  const auto reg = runtime::default_registry(calibration(), {.stages = kDims});
  auto backend = reg.create("exact");
  hdc::load_classes(*qmodel_, *backend);
  // Already loaded: a second load must refuse rather than double-store.
  EXPECT_THROW(hdc::load_classes(*qmodel_, *backend), std::invalid_argument);

  // Width mismatch.
  const auto narrow = runtime::default_registry(calibration(),
                                                {.stages = kDims / 2});
  auto bad = narrow.create("exact");
  EXPECT_THROW(hdc::load_classes(*qmodel_, *bad), std::invalid_argument);

  // Alphabet too small for the model's digits.
  core::ExactL1Backend tiny(kDims, /*levels=*/2);
  EXPECT_THROW(hdc::load_classes(*qmodel_, tiny), std::invalid_argument);

  EXPECT_EQ(hdc::classify(tiny, query_digits_.front()), -1);  // empty backend
}

}  // namespace
}  // namespace tdam
