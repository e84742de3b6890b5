// Asynchronous serving front-end: micro-batching, admission control,
// deadlines, and the epoch guard that reconciles mutation with serving.
// Suite names matter — CI runs Scheduler*/Server* under TSan.
#include "runtime/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "am/calibration.h"
#include "am/words.h"
#include "runtime/backends.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "runtime/sharded_index.h"
#include "util/rng.h"

namespace tdam::runtime {
namespace {

using std::chrono::steady_clock;

constexpr int kLevels = 4;  // 2-bit digits, matching ChainConfig defaults

const am::CalibrationResult& calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(37);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

core::BackendRegistry registry_for(int stages) {
  return runtime::default_registry(calibration(), {.stages = stages});
}

PendingQuery pending(std::vector<int> digits, int k = 1,
                     steady_clock::time_point deadline = AmServer::kNoDeadline) {
  PendingQuery q;
  q.digits = std::move(digits);
  q.k = k;
  q.deadline = deadline;
  q.enqueued = steady_clock::now();
  return q;
}

// --- Scheduler: pure queue/batching/admission semantics, no engine ---

TEST(RuntimeScheduler, FlushesImmediatelyAtMaxBatch) {
  Scheduler s({.max_batch = 4, .max_delay = 60.0, .queue_capacity = 64});
  for (int i = 0; i < 4; ++i) s.enqueue(pending({i}));
  // max_delay is a minute: only the max_batch trigger can flush this fast.
  const auto batch = s.next_batch();
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].digits, std::vector<int>{i});
  EXPECT_EQ(s.depth(), 0);
}

TEST(RuntimeScheduler, FlushesPartialBatchAfterMaxDelay) {
  Scheduler s({.max_batch = 32, .max_delay = 0.01, .queue_capacity = 64});
  const auto t0 = steady_clock::now();
  s.enqueue(pending({1}));
  const auto batch = s.next_batch();
  const double waited =
      std::chrono::duration<double>(steady_clock::now() - t0).count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GE(waited, 0.009);  // the flush really came from the delay trigger
}

TEST(RuntimeScheduler, RejectPolicyFailsTheNewQueryWhenFull) {
  Scheduler s({.max_batch = 8,
               .max_delay = 60.0,
               .queue_capacity = 2,
               .policy = AdmissionPolicy::kReject});
  auto q0 = pending({0});
  auto q1 = pending({1});
  auto q2 = pending({2});
  auto f2 = bind_future(q2.done);
  s.enqueue(std::move(q0));
  s.enqueue(std::move(q1));
  s.enqueue(std::move(q2));  // over capacity: bounced, queue untouched
  const auto served = f2.get();
  EXPECT_EQ(served.status, QueryStatus::kRejected);
  EXPECT_TRUE(served.result.entries.empty());
  EXPECT_EQ(s.depth(), 2);
}

TEST(RuntimeScheduler, ShedOldestEvictsTheHeadAndAdmitsTheNewQuery) {
  Scheduler s({.max_batch = 2,
               .max_delay = 60.0,
               .queue_capacity = 2,
               .policy = AdmissionPolicy::kShedOldest});
  auto q0 = pending({0});
  auto f0 = bind_future(q0.done);
  s.enqueue(std::move(q0));
  s.enqueue(pending({1}));
  s.enqueue(pending({2}));  // full: q0 (the oldest) is shed
  const auto shed = f0.get();
  EXPECT_EQ(shed.status, QueryStatus::kShed);
  const auto batch = s.next_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].digits, std::vector<int>{1});
  EXPECT_EQ(batch[1].digits, std::vector<int>{2});
}

TEST(RuntimeScheduler, BlockPolicyAppliesBackpressureUntilSpaceFrees) {
  Scheduler s({.max_batch = 1,
               .max_delay = 60.0,
               .queue_capacity = 1,
               .policy = AdmissionPolicy::kBlock});
  s.enqueue(pending({0}));
  std::promise<void> producer_done;
  auto done = producer_done.get_future();
  std::thread producer([&] {
    s.enqueue(pending({1}));  // must block: queue is at capacity
    producer_done.set_value();
  });
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  const auto first = s.next_batch();  // frees the slot
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].digits, std::vector<int>{0});
  done.get();  // producer unblocked
  producer.join();
  const auto second = s.next_batch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].digits, std::vector<int>{1});
}

TEST(RuntimeScheduler, CloseFlushesPendingThenReturnsEmptyAndRejectsNewWork) {
  Scheduler s({.max_batch = 32, .max_delay = 60.0, .queue_capacity = 8});
  s.enqueue(pending({0}));
  s.enqueue(pending({1}));
  s.close();
  EXPECT_TRUE(s.closed());
  const auto batch = s.next_batch();  // partial batch flushes on close
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(s.next_batch().empty());  // drained: dispatcher exit signal
  auto late = pending({2});
  auto f = bind_future(late.done);
  s.enqueue(std::move(late));
  EXPECT_EQ(f.get().status, QueryStatus::kRejected);
}

TEST(RuntimeScheduler, RecordsAdmissionOutcomesInMetrics) {
  ServingMetrics metrics;
  Scheduler s({.max_batch = 8,
               .max_delay = 60.0,
               .queue_capacity = 1,
               .policy = AdmissionPolicy::kShedOldest},
              &metrics);
  s.enqueue(pending({0}));
  EXPECT_EQ(metrics.snapshot().queue_depth, 1u);
  s.enqueue(pending({1}));  // sheds {0}
  const auto after_shed = metrics.snapshot();
  EXPECT_EQ(after_shed.shed, 1u);
  EXPECT_EQ(after_shed.peak_queue_depth, 1u);
  s.close();
  auto late = pending({2});
  s.enqueue(std::move(late));
  EXPECT_EQ(metrics.snapshot().rejected, 1u);
}

TEST(RuntimeScheduler, ValidatesOptions) {
  EXPECT_THROW(Scheduler({.max_batch = 0}), std::invalid_argument);
  EXPECT_THROW(Scheduler({.queue_capacity = 0}), std::invalid_argument);
  EXPECT_THROW(Scheduler({.max_delay = -1.0}), std::invalid_argument);
}

// --- AmServer: end-to-end async serving over the real engine ---

struct ServerWorkload {
  ShardedIndex index;
  std::vector<std::vector<int>> stored;
  std::vector<std::vector<int>> queries;
};

ServerWorkload make_workload(const core::BackendRegistry& reg,
                             const std::string& backend, int shards,
                             int stages, int rows, int num_queries,
                             std::uint64_t seed) {
  ServerWorkload w{ShardedIndex(reg, {.backend = backend, .shards = shards}),
                   {},
                   {}};
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    w.stored.push_back(am::random_word(rng, stages, kLevels));
    w.index.store(w.stored.back());
  }
  for (int q = 0; q < num_queries; ++q)
    w.queries.push_back(am::random_word(rng, stages, kLevels));
  return w;
}

// Acceptance pin: async answers are bit-identical to a direct synchronous
// submit_batch on the same index, for every registered backend.
TEST(RuntimeServer, MatchesDirectEngineForEveryBackend) {
  constexpr int kStages = 24, kRows = 50, kQueries = 30, kTopK = 5;
  const auto reg = registry_for(kStages);
  for (const auto& name : reg.names()) {
    auto w = make_workload(reg, name, 3, kStages, kRows, kQueries,
                           900 + static_cast<std::uint64_t>(name.size()));
    SearchEngine direct(w.index, {.threads = 1});
    const auto reference = direct.submit_batch(w.queries, kTopK);

    AmServer server(w.index, {.engine = {.threads = 2},
                              .scheduler = {.max_batch = 8,
                                            .max_delay = 1e-4}});
    std::vector<std::future<ServedResult>> futures;
    for (const auto& q : w.queries)
      futures.push_back(server.submit(q, kTopK));
    for (std::size_t q = 0; q < futures.size(); ++q) {
      const auto served = futures[q].get();
      ASSERT_EQ(served.status, QueryStatus::kOk) << "backend=" << name;
      EXPECT_EQ(served.result.entries, reference[q].entries)
          << "backend=" << name << " query=" << q;
      EXPECT_GE(served.queue_seconds, 0.0);
    }
  }
}

TEST(RuntimeServer, PackedSubmitMatchesPerQuerySubmit) {
  constexpr int kStages = 16, kTopK = 3;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 40, 12, 1000);
  SearchEngine direct(w.index, {.threads = 1});
  const auto reference = direct.submit_batch(w.queries, kTopK);

  core::DigitMatrix packed(kStages, kLevels);
  for (const auto& q : w.queries) packed.append(q);
  AmServer server(w.index, {.scheduler = {.max_batch = 4, .max_delay = 1e-4}});
  auto futures = server.submit(packed, kTopK);
  ASSERT_EQ(futures.size(), w.queries.size());
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto served = futures[q].get();
    ASSERT_EQ(served.status, QueryStatus::kOk);
    EXPECT_EQ(served.result.entries, reference[q].entries) << q;
  }
}

TEST(RuntimeServer, ExpiredDeadlineShortCircuitsWithoutTouchingShards) {
  constexpr int kStages = 8;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 10, 4, 1100);
  AmServer server(w.index, {.scheduler = {.max_batch = 4, .max_delay = 1e-3}});
  // A deadline already in the past must come back kDeadlineExpired with no
  // entries — the dispatcher sheds it at dequeue, before any shard work.
  const auto past = steady_clock::now() - std::chrono::seconds(1);
  auto expired = server.submit(w.queries[0], 2, past);
  // A generous deadline on the same batch must still be answered.
  auto alive = server.submit(w.queries[1], 2,
                             steady_clock::now() + std::chrono::minutes(5));
  const auto dead = expired.get();
  EXPECT_EQ(dead.status, QueryStatus::kDeadlineExpired);
  EXPECT_TRUE(dead.result.entries.empty());
  const auto ok = alive.get();
  EXPECT_EQ(ok.status, QueryStatus::kOk);
  EXPECT_FALSE(ok.result.entries.empty());
  EXPECT_GE(server.metrics().snapshot().expired, 1u);
}

TEST(RuntimeServer, MixedKWithinOneMicroBatch) {
  constexpr int kStages = 12;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 30, 6, 1200);
  SearchEngine direct(w.index, {.threads = 1});
  AmServer server(w.index,
                  {.scheduler = {.max_batch = 6, .max_delay = 50e-3}});
  std::vector<std::future<ServedResult>> futures;
  for (std::size_t q = 0; q < w.queries.size(); ++q)
    futures.push_back(server.submit(w.queries[q], 1 + static_cast<int>(q % 3)));
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto served = futures[q].get();
    ASSERT_EQ(served.status, QueryStatus::kOk);
    const int k = 1 + static_cast<int>(q % 3);
    const auto ref = direct.submit_batch(
        std::span<const std::vector<int>>(&w.queries[q], 1), k);
    EXPECT_EQ(served.result.entries, ref[0].entries) << "query=" << q;
  }
}

TEST(RuntimeServer, StoreWhileLiveDrainsBatchesAndBumpsGeneration) {
  constexpr int kStages = 10;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 20, 8, 1300);
  const auto base_generation = w.index.generation();  // 20 stores
  AmServer server(w.index, {.engine = {.threads = 2},
                            .scheduler = {.max_batch = 4,
                                          .max_delay = 1e-4}});
  EXPECT_EQ(server.generation(), base_generation);

  // Keep a stream of queries in flight while storing a brand-new row.
  std::vector<std::future<ServedResult>> futures;
  for (int round = 0; round < 4; ++round)
    for (const auto& q : w.queries) futures.push_back(server.submit(q, 3));
  Rng rng(1400);
  const auto fresh = am::random_word(rng, kStages, kLevels);
  const int fresh_id = server.store(fresh);
  EXPECT_EQ(fresh_id, 20);
  EXPECT_EQ(server.generation(), base_generation + 1);
  for (auto& f : futures) {
    const auto served = f.get();
    ASSERT_EQ(served.status, QueryStatus::kOk);
    EXPECT_GE(served.generation, base_generation);
    EXPECT_LE(served.generation, base_generation + 1);
  }
  // The new epoch is served: an exact-match query must find the fresh row.
  const auto hit = server.submit(fresh, 1).get();
  ASSERT_EQ(hit.status, QueryStatus::kOk);
  ASSERT_EQ(hit.result.entries.size(), 1u);
  EXPECT_EQ(hit.result.entries[0].row, fresh_id);
  EXPECT_EQ(hit.result.entries[0].score, 0.0);
  EXPECT_EQ(hit.generation, base_generation + 1);
}

TEST(RuntimeServer, ShutdownDrainsQueuedQueriesAndRejectsLateSubmits) {
  constexpr int kStages = 8;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 15, 10, 1500);
  AmServer server(w.index,
                  {.scheduler = {.max_batch = 64, .max_delay = 60.0}});
  // max_delay is a minute and the batch never fills: only shutdown's drain
  // can answer these.
  std::vector<std::future<ServedResult>> futures;
  for (const auto& q : w.queries) futures.push_back(server.submit(q, 2));
  server.shutdown();
  for (auto& f : futures) {
    const auto served = f.get();
    EXPECT_EQ(served.status, QueryStatus::kOk);
    EXPECT_FALSE(served.result.entries.empty());
  }
  auto late = server.submit(w.queries[0], 2);
  EXPECT_EQ(late.get().status, QueryStatus::kRejected);
  EXPECT_GE(server.metrics().snapshot().rejected, 1u);
}

TEST(RuntimeServer, ValidatesQueriesSynchronously) {
  constexpr int kStages = 6;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 1, kStages, 5, 1, 1600);
  AmServer server(w.index, {});
  EXPECT_THROW(server.submit(w.queries[0], 0), std::invalid_argument);
  EXPECT_THROW(server.submit(std::vector<int>{0, 1}, 1),
               std::invalid_argument);
  EXPECT_THROW(server.submit(std::vector<int>{0, 1, 2, 3, 0, kLevels}, 1),
               std::invalid_argument);
  core::DigitMatrix narrow(3, kLevels);
  narrow.append(std::vector<int>{0, 1, 2});
  EXPECT_THROW(server.submit(narrow, 1), std::invalid_argument);
}

TEST(RuntimeServer, MetricsExposeBatchSizesAndQueueDepth) {
  constexpr int kStages = 8;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 12, 16, 1700);
  AmServer server(w.index,
                  {.scheduler = {.max_batch = 4, .max_delay = 1e-4}});
  std::vector<std::future<ServedResult>> futures;
  for (const auto& q : w.queries) futures.push_back(server.submit(q, 2));
  for (auto& f : futures) EXPECT_EQ(f.get().status, QueryStatus::kOk);
  const auto m = server.metrics().snapshot();
  EXPECT_EQ(m.queries, w.queries.size());
  EXPECT_GE(m.batches, (w.queries.size() + 3) / 4);
  EXPECT_GT(m.batch_size_quantile(0.5), 0.0);
  EXPECT_LE(m.batch_size_quantile(1.0), 4.0 + 1.0);  // bin-interpolated
  const auto table = server.metrics().summary_table();
  EXPECT_NE(table.find("queue depth"), std::string::npos);
  EXPECT_NE(table.find("deadline expired"), std::string::npos);
}

TEST(RuntimeServer, ResultsCarryTraceIdsAndStageTimings) {
  constexpr int kStages = 8;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 2, kStages, 12, 8, 1800);
  AmServer server(w.index,
                  {.scheduler = {.max_batch = 4, .max_delay = 1e-4},
                   .trace = {.mode = obs::TraceMode::kFull,
                             .capacity = 64}});
  std::vector<std::future<ServedResult>> futures;
  for (const auto& q : w.queries) futures.push_back(server.submit(q, 2));
  std::vector<std::uint64_t> ids;
  for (auto& f : futures) {
    const auto served = f.get();
    ASSERT_EQ(served.status, QueryStatus::kOk);
    EXPECT_GT(served.trace_id, 0u);
    ids.push_back(served.trace_id);
    // Every stage was reached and timed for an answered, traced query.
    EXPECT_GE(served.stages.queue_wait, 0.0);
    EXPECT_GE(served.stages.batch_wait, 0.0);
    EXPECT_GE(served.stages.scan, 0.0);
    EXPECT_GE(served.stages.merge, 0.0);
  }
  // Ids are unique and assigned in submit order starting at 1.
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(ids.front(), 1u);
  // kFull records every span; each recorded span is internally ordered.
  EXPECT_EQ(server.recorder().recorded(), w.queries.size());
  for (const auto& span : server.recorder().snapshot()) {
    EXPECT_EQ(span.status, static_cast<int>(QueryStatus::kOk));
    EXPECT_LE(span.admit_ns, span.batch_form_ns);
    EXPECT_LE(span.batch_form_ns, span.dispatch_ns);
    EXPECT_LE(span.dispatch_ns, span.fulfill_ns);
  }
  // The stage histograms in the serving metrics saw the same traffic.
  const auto m = server.metrics().snapshot();
  EXPECT_EQ(m.queue_wait.total(), w.queries.size());
  EXPECT_EQ(m.scan.total(), w.queries.size());
  const auto stage_table = server.metrics().stage_table();
  EXPECT_NE(stage_table.find("queue wait"), std::string::npos);
  EXPECT_NE(stage_table.find("merge"), std::string::npos);
}

TEST(RuntimeServer, TracingOffStillAssignsIdsButRecordsNothing) {
  constexpr int kStages = 8;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 1, kStages, 6, 4, 1900);
  AmServer server(w.index,
                  {.scheduler = {.max_batch = 2, .max_delay = 1e-4},
                   .trace = {.mode = obs::TraceMode::kOff}});
  std::vector<std::future<ServedResult>> futures;
  for (const auto& q : w.queries) futures.push_back(server.submit(q, 1));
  for (auto& f : futures) {
    const auto served = f.get();
    ASSERT_EQ(served.status, QueryStatus::kOk);
    EXPECT_GT(served.trace_id, 0u);       // ids stay correlatable
    EXPECT_LT(served.stages.queue_wait, 0.0);  // but no stage stamps
    // scan/merge come from the engine's own clocks regardless of tracing.
    EXPECT_GE(served.stages.scan, 0.0);
  }
  EXPECT_EQ(server.recorder().recorded(), 0u);
  EXPECT_TRUE(server.recorder().snapshot().empty());
}

TEST(RuntimeServer, DestructionWithQueriesInFlightNeverBreaksAPromise) {
  // Destroy the server while queries are still queued (a minute of batching
  // delay guarantees they are): every future must resolve with a terminal
  // status — kOk or kRejected — and none may throw broken_promise.
  constexpr int kStages = 8, kQueries = 40;
  const auto reg = registry_for(kStages);
  auto w = make_workload(reg, "exact", 1, kStages, 6, kQueries, 2100);
  std::vector<std::future<ServedResult>> futures;
  {
    AmServer server(w.index,
                    {.scheduler = {.max_batch = 64, .max_delay = 60.0}});
    for (const auto& q : w.queries) futures.push_back(server.submit(q, 1));
  }  // ~AmServer with the whole workload still pending
  for (auto& f : futures) {
    const auto served = f.get();  // broken promise would throw future_error
    EXPECT_TRUE(served.status == QueryStatus::kOk ||
                served.status == QueryStatus::kRejected);
  }
}

TEST(RuntimeScheduler, DestructorRejectsStillQueuedQueries) {
  // A scheduler destroyed before any dispatcher drains it must fulfil the
  // orphaned promises itself (kRejected), never abandon them.
  std::vector<std::future<ServedResult>> futures;
  {
    Scheduler s({.max_batch = 64, .max_delay = 60.0, .queue_capacity = 64});
    for (int i = 0; i < 5; ++i) {
      auto q = pending({i});
      futures.push_back(bind_future(q.done));
      s.enqueue(std::move(q));
    }
  }  // ~Scheduler with 5 queries queued and no dispatcher
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, QueryStatus::kRejected);
}

}  // namespace
}  // namespace tdam::runtime
