// Live ingest on the epoch-published segmented index: bit-identity of the
// segmented read path against a single-bank index and brute force on every
// registered backend (quiesced and after compaction), compaction invariants
// (rows/ids/generation unchanged), background-compactor convergence, and a
// writers × readers × compaction hammer over AmServer asserting epoch
// consistency — every answer's generation names a published row count, and
// every entry is a row that existed at that epoch with the exact distance.
//
// Suites carry the Runtime prefix so the TSan CI job races them all.
#include "runtime/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "am/calibration.h"
#include "am/words.h"
#include "runtime/backends.h"
#include "runtime/engine.h"
#include "runtime/server.h"

namespace tdam::runtime {
namespace {

am::CalibrationResult calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(91);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

constexpr int kLevels = 4;  // 2-bit digits, matching ChainConfig defaults
constexpr int kStages = 16;

core::BackendRegistry registry() {
  return default_registry(calibration(), {.stages = kStages});
}

// Metric-aware reference score, built from plain integer arithmetic plus
// the canonical core::cosine_score expression — the same exact values every
// backend must reproduce.
double reference_score(const std::vector<int>& row, std::span<const int> query,
                       core::DigitMetric metric) {
  std::int64_t dot = 0, row_sq = 0, query_sq = 0;
  int mismatches = 0;
  std::int64_t l1 = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    dot += static_cast<std::int64_t>(row[i]) * query[i];
    row_sq += static_cast<std::int64_t>(row[i]) * row[i];
    query_sq += static_cast<std::int64_t>(query[i]) * query[i];
    mismatches += row[i] != query[i];
    l1 += std::abs(row[i] - query[i]);
  }
  switch (metric) {
    case core::DigitMetric::kMismatchCount: return mismatches;
    case core::DigitMetric::kL1: return static_cast<double>(l1);
    case core::DigitMetric::kCosine:
      return core::cosine_score(dot, query_sq, row_sq);
    case core::DigitMetric::kDot: return static_cast<double>(dot);
  }
  return 0.0;
}

std::vector<core::TopKEntry> brute_force_topk(
    const std::vector<std::vector<int>>& stored, std::span<const int> query,
    int k, core::DigitMetric metric = core::DigitMetric::kMismatchCount) {
  std::vector<core::TopKEntry> all;
  for (std::size_t r = 0; r < stored.size(); ++r)
    all.push_back(
        {static_cast<int>(r), reference_score(stored[r], query, metric)});
  std::sort(all.begin(), all.end(),
            core::ScoreComparator{core::metric_order(metric)});
  all.resize(std::min<std::size_t>(static_cast<std::size_t>(k), all.size()));
  return all;
}

// --- bit-identity: many small segments vs one big bank -------------------

TEST(RuntimeIngest, SegmentedTopKBitIdenticalToSingleBankOnAllBackends) {
  const auto reg = registry();
  constexpr int kRows = 100, kQueries = 12, kK = 5;
  for (const auto& backend : reg.names()) {
    SCOPED_TRACE("backend=" + backend);
    // Same rows into a finely segmented index (seal every 8 rows, no
    // background thread so the segment layout is deterministic) and into
    // an effectively single-bank one (seal threshold never reached).
    ShardedIndex segmented(reg, {.backend = backend,
                                 .shards = 2,
                                 .seal_rows = 8,
                                 .background_compaction = false});
    ShardedIndex single(reg, {.backend = backend,
                              .shards = 2,
                              .seal_rows = 1 << 20,
                              .background_compaction = false});
    Rng rng(17);
    std::vector<std::vector<int>> stored;
    for (int r = 0; r < kRows; ++r) {
      stored.push_back(am::random_word(rng, kStages, kLevels));
      ASSERT_EQ(segmented.store(stored.back()), r);
      ASSERT_EQ(single.store(stored.back()), r);
    }
    ASSERT_GT(segmented.pin()->segments, single.pin()->segments);

    std::vector<std::vector<int>> queries;
    for (int q = 0; q < kQueries; ++q)
      queries.push_back(am::random_word(rng, kStages, kLevels));

    SearchEngine seg_engine(segmented, {.threads = 2});
    SearchEngine one_engine(single, {.threads = 2});
    const auto check = [&](const std::string& when) {
      const auto a = seg_engine.submit_batch(queries, kK);
      const auto b = one_engine.submit_batch(queries, kK);
      ASSERT_EQ(a.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE(when + " query " + std::to_string(q));
        ASSERT_EQ(a[q].entries.size(), b[q].entries.size());
        for (std::size_t e = 0; e < a[q].entries.size(); ++e) {
          EXPECT_EQ(a[q].entries[e].row, b[q].entries[e].row);
          EXPECT_EQ(a[q].entries[e].score, b[q].entries[e].score);
        }
        const auto truth =
            brute_force_topk(stored, queries[q], kK, segmented.metric());
        ASSERT_EQ(a[q].entries.size(), truth.size());
        for (std::size_t e = 0; e < truth.size(); ++e) {
          EXPECT_EQ(a[q].entries[e].row, truth[e].row);
          EXPECT_EQ(a[q].entries[e].score, truth[e].score);
        }
      }
    };
    check("segmented");

    // After compaction both indexes hold one segment per shard, so the
    // modeled hardware costs must match too, not just the entries.
    segmented.compact_now();
    check("compacted");
    EXPECT_GE(segmented.compactions(), 1u);
    const auto a = seg_engine.submit_batch(queries, kK);
    const auto b = one_engine.submit_batch(queries, kK);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_DOUBLE_EQ(a[q].modeled_latency, b[q].modeled_latency);
      EXPECT_DOUBLE_EQ(a[q].modeled_energy, b[q].modeled_energy);
      EXPECT_EQ(a[q].modeled_passes, b[q].modeled_passes);
    }
  }
}

// --- compaction invariants ------------------------------------------------

TEST(RuntimeIngest, CompactNowPreservesRowsIdsAndGeneration) {
  ShardedIndex index(registry(), {.shards = 3,
                                  .seal_rows = 4,
                                  .background_compaction = false});
  Rng rng(29);
  for (int r = 0; r < 30; ++r)
    index.store(am::random_word(rng, kStages, kLevels));

  const auto generation = index.generation();
  const auto before = index.snapshot();
  std::vector<std::vector<int>> rows_before;
  for (int r = 0; r < index.size(); ++r) rows_before.push_back(index.row(r));
  ASSERT_GT(index.pin()->segments, index.num_shards());

  index.compact_now();

  // Compaction is invisible to every read surface except the segment count.
  EXPECT_EQ(index.generation(), generation);
  EXPECT_EQ(index.size(), 30);
  EXPECT_EQ(index.pin()->segments, index.num_shards());
  EXPECT_EQ(index.pin()->delta_rows, 0);
  EXPECT_GE(index.compactions(), 1u);
  EXPECT_EQ(index.snapshot(), before);
  for (int r = 0; r < index.size(); ++r)
    EXPECT_EQ(index.row(r), rows_before[static_cast<std::size_t>(r)]);
}

TEST(RuntimeIngest, BackgroundCompactorEventuallyMergesSealedSegments) {
  ShardedIndex index(registry(), {.shards = 2,
                                  .seal_rows = 4,
                                  .compact_min_segments = 2,
                                  .background_compaction = true});
  Rng rng(31);
  std::vector<std::vector<int>> stored;
  for (int r = 0; r < 64; ++r) {
    stored.push_back(am::random_word(rng, kStages, kLevels));
    index.store(stored.back());
  }

  // 64 rows at seal_rows=4 leave ~16 segments; the compactor must shrink
  // the published list without losing a row.  Poll with a generous timeout.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto snap = index.pin();
    if (index.compactions() >= 1 &&
        snap->segments <= 2 * index.num_shards())
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(index.compactions(), 1u);
  EXPECT_LE(index.pin()->segments, 2 * index.num_shards());

  EXPECT_EQ(index.size(), 64);
  SearchEngine engine(index, {.threads = 1});
  const auto query = am::random_word(rng, kStages, kLevels);
  const auto result =
      engine.submit_batch(std::vector<std::vector<int>>{query}, 3);
  const auto truth = brute_force_topk(stored, query, 3);
  ASSERT_EQ(result[0].entries.size(), truth.size());
  for (std::size_t e = 0; e < truth.size(); ++e) {
    EXPECT_EQ(result[0].entries[e].row, truth[e].row);
    EXPECT_EQ(result[0].entries[e].score, truth[e].score);
  }
}

// --- the hammer: writers x readers x compaction, epoch consistency -------

TEST(RuntimeIngest, HammerWritersReadersCompactionSeeConsistentEpochs) {
  constexpr int kWriters = 8, kReaders = 8;
  constexpr int kStoresPerWriter = 100, kQueriesPerReader = 50, kK = 3;

  ShardedIndex index(registry(), {.shards = 4,
                                  .seal_rows = 16,
                                  .compact_min_segments = 2,
                                  .background_compaction = true});
  AmServer server(index, {.engine = {.threads = 2},
                          .scheduler = {.max_batch = 8}});

  // Stores-only mutation stream from an empty index: generation == rows at
  // every published epoch, which turns the stamped generation into a hard
  // consistency check on each answer.
  std::mutex stored_mutex;
  std::map<int, std::vector<int>> stored;  // id -> digits, filled post-store
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kStoresPerWriter; ++i) {
        const auto digits = am::random_word(rng, kStages, kLevels);
        const int id = server.store(digits);
        std::lock_guard<std::mutex> lock(stored_mutex);
        stored.emplace(id, digits);
      }
    });
  }

  struct Answer {
    std::vector<int> query;
    std::uint64_t generation = 0;
    std::vector<core::TopKEntry> entries;
  };
  std::vector<std::vector<Answer>> answers(kReaders);
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(200 + static_cast<std::uint64_t>(r));
      for (int q = 0; q < kQueriesPerReader; ++q) {
        Answer a;
        a.query = am::random_word(rng, kStages, kLevels);
        const auto served = server.submit(a.query, kK).get();
        if (served.status != QueryStatus::kOk) {
          ++failures;  // block policy + no deadline: nothing may degrade
          continue;
        }
        a.generation = served.generation;
        a.entries = served.result.entries;
        answers[static_cast<std::size_t>(r)].push_back(std::move(a));
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  server.shutdown();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(index.size(), kWriters * kStoresPerWriter);
  ASSERT_EQ(stored.size(),
            static_cast<std::size_t>(kWriters * kStoresPerWriter));

  // Epoch consistency, verified post-hoc against the recorded rows:
  //  * generation G means exactly G rows were published, so the answer
  //    must carry min(k, G) entries, every one a row id below G;
  //  * each score must equal the true distance to that stored row.
  for (const auto& per_reader : answers) {
    for (const auto& a : per_reader) {
      const auto expect_entries = std::min<std::uint64_t>(kK, a.generation);
      ASSERT_EQ(a.entries.size(), expect_entries)
          << "generation " << a.generation;
      for (const auto& e : a.entries) {
        ASSERT_LT(static_cast<std::uint64_t>(e.row), a.generation);
        ASSERT_EQ(e.score,
                  static_cast<double>(am::hamming(stored.at(e.row), a.query)));
      }
    }
  }

  // The whole stream is still searchable after the race.
  index.compact_now();
  EXPECT_EQ(index.pin()->segments, index.num_shards());
  SearchEngine engine(index, {.threads = 1});
  const auto& [probe_id, probe_digits] = *stored.begin();
  const auto result =
      engine.submit_batch(std::vector<std::vector<int>>{probe_digits}, 1);
  ASSERT_EQ(result[0].entries.size(), 1u);
  EXPECT_EQ(result[0].entries[0].score, 0.0);
}

}  // namespace
}  // namespace tdam::runtime
