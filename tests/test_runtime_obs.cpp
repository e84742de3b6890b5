// Concurrency soak for the obs substrate — lives in a test_runtime_*.cpp
// file so the Runtime prefix puts it under the CI thread-sanitizer job's
// --gtest_filter='Runtime*'.  Eight writer threads hammer one registry's
// counters/gauges/histograms (and a shared flight recorder) while a reader
// scrapes Prometheus/JSON snapshots the whole time; TSan proves the
// lock-free record paths and the scrape path never race.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/metrics.h"

namespace tdam::obs {
namespace {

TEST(RuntimeObsRegistry, ConcurrentWritersWithLiveScraper) {
  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 20000;
  MetricsRegistry reg;
  auto& hits = reg.counter("hits_total", "hammered counter");
  auto& depth = reg.gauge("depth", "hammered gauge");
  auto& lat =
      reg.exponential_histogram("lat", "hammered histogram", 1e-3, 2.0, 64);
  FlightRecorder rec({.mode = TraceMode::kSampled, .sample_every = 4,
                      .capacity = 128});

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::ostringstream out;
      export_prometheus(out, reg);
      export_json(out, reg, &rec);
      EXPECT_FALSE(out.str().empty());
      // Counters are monotone: any mid-traffic scrape sees a sane value.
      EXPECT_GE(hits.value(), 0.0);
      EXPECT_LE(hits.value(),
                static_cast<double>(kWriters) * kOpsPerWriter);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        hits.add(1.0);
        depth.set(static_cast<double>(i % 100));
        depth.max(static_cast<double>(i % 100));
        lat.observe(
            static_cast<double>((w * kOpsPerWriter + i) % 1000 + 1) * 1e-3);
        SpanRecord span;
        span.trace_id = rec.next_trace_id();
        span.enqueue_ns = 1;
        span.fulfill_ns = 2;
        span.status = 0;
        rec.record(span);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_DOUBLE_EQ(hits.value(),
                   static_cast<double>(kWriters) * kOpsPerWriter);
  const auto snap = lat.snapshot();
  EXPECT_EQ(snap.total(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(snap.underflow, 0u);
  EXPECT_EQ(snap.overflow, 0u);
  // Every 4th id sampled; the ring holds the most recent 128 of them.
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter / 4);
  EXPECT_EQ(rec.snapshot().size(), 128u);
}

TEST(RuntimeObsMetrics, ServingMetricsHotPathsAreThreadSafe) {
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  runtime::ServingMetrics metrics(0.25, 256, 64);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto snap = metrics.snapshot();
      // queries/batches move together under the batch mutex: a scrape can
      // never see queries from a batch whose batch counter is missing.
      EXPECT_LE(snap.batches, snap.queries + 1);
      std::ostringstream out;
      export_prometheus(out, metrics.registry());
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        metrics.record_query_wall(1e-4);
        runtime::StageTimings stages;
        stages.queue_wait = 1e-5;
        stages.scan = 2e-5;
        metrics.record_stage_times(stages);
        metrics.set_queue_depth(static_cast<std::size_t>(i % 10));
        if (i % 100 == 0) {
          runtime::BatchStats batch;
          batch.queries = 100;
          batch.wall_seconds = 1e-2;
          metrics.record_batch(batch);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.wall.total(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(snap.queries, static_cast<std::size_t>(kThreads) * kOps);
  EXPECT_EQ(snap.batches, static_cast<std::size_t>(kThreads) * (kOps / 100));
  EXPECT_EQ(snap.queue_wait.total(),
            static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace tdam::obs
