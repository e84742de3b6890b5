// Serving-engine throughput: closed-loop (google-benchmark) and open-loop
// (arrival-rate driven) modes, over any registered similarity backend.
//
// Closed-loop: QPS as a function of thread count and shard count at 1k-64k
// stored vectors.  Counters report queries/second (items processed ==
// queries served); the headline check is that 8 worker threads on >= 4
// shards clears 2x the QPS of the single-threaded reference path on the
// same workload.  The --backend flag swaps the engine under the identical
// sharded serving path (same placement, same merge, same workload), so
// TD-AM vs digital vs CAM vs exact-software serving compare like for like.
//
// Open-loop (--open-loop): queries arrive on a fixed schedule at a target
// QPS regardless of completion (the datacenter-traffic model the async
// front-end exists for), through AmServer's micro-batching admission queue.
// Each target rate reports achieved QPS, end-to-end p50/p99 wall latency of
// answered queries, and the shed rate (rejected + shed + deadline-expired
// over offered) — the degradation curve past saturation.
//
//   $ ./bench_runtime_throughput                       # full sweep (behavioral)
//   $ ./bench_runtime_throughput --backend=digital
//   $ ./bench_runtime_throughput --backend=exact --benchmark_filter='/8/4/16384'
//   $ ./bench_runtime_throughput --open-loop --ol-qps=2000,10000,50000
//       [--ol-vectors=16384] [--ol-shards=4] [--ol-threads=4]
//       [--ol-queries=4000] [--ol-batch=32] [--ol-deadline-us=20000]
//       [--ol-queue-cap=256]
//       [--ol-policy=block|reject|shed] [--ol-out=BENCH_runtime.json]
//
// --ol-out writes the open-loop sweep as BENCH_runtime.json (schema
// validated by scripts/check_bench_json.py): one result row per target
// rate with achieved QPS, p50/p99 latency and the shed rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "am/calibration.h"
#include "bench_common.h"
#include "am/words.h"
#include "runtime/backends.h"
#include "runtime/engine.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace tdam;

namespace {

constexpr int kStages = 64;   // digits per stored vector
constexpr int kLevels = 4;    // 2-bit digits
constexpr int kBatch = 32;    // queries per submit_batch
constexpr int kTopK = 10;

std::string g_backend = "behavioral";  // set by --backend= before Initialize

const am::CalibrationResult& calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(1);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

const core::BackendRegistry& registry() {
  static const core::BackendRegistry reg =
      runtime::default_registry(calibration(), {.stages = kStages});
  return reg;
}

struct Workload {
  runtime::ShardedIndex index;
  std::vector<std::vector<int>> queries;
};

// Index construction dominates setup at 64k vectors; cache per config so
// every thread-count variant reuses the same stored set and query stream.
Workload& workload(int shards, int vectors) {
  static std::map<std::pair<int, int>, std::unique_ptr<Workload>> cache;
  auto& slot = cache[{shards, vectors}];
  if (!slot) {
    slot = std::make_unique<Workload>(Workload{
        runtime::ShardedIndex(registry(),
                              {.backend = g_backend, .shards = shards}),
        {}});
    Rng rng(static_cast<std::uint64_t>(shards * 1000003 + vectors));
    for (int v = 0; v < vectors; ++v)
      slot->index.store(am::random_word(rng, kStages, kLevels));
    for (int q = 0; q < kBatch; ++q)
      slot->queries.push_back(am::random_word(rng, kStages, kLevels));
  }
  return *slot;
}

// --- open-loop mode: fixed arrival schedule through the async front-end ---

runtime::AdmissionPolicy parse_policy(const std::string& name) {
  if (name == "block") return runtime::AdmissionPolicy::kBlock;
  if (name == "reject") return runtime::AdmissionPolicy::kReject;
  return runtime::AdmissionPolicy::kShedOldest;  // "shed"
}

std::vector<double> parse_qps_list(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto token = csv.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
    if (!token.empty()) out.push_back(std::stod(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// One open-loop sweep row, kept so --ol-out can replay the table into
// BENCH_runtime.json after the sweep finishes.
struct OpenLoopRow {
  double target_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  long ok = 0, rejected = 0, shed = 0, expired = 0;
};

int run_open_loop(const tdam::CliArgs& args) {
  using Clock = std::chrono::steady_clock;
  const int vectors = args.get_int("ol-vectors", 16384);
  const int shards = args.get_int("ol-shards", 4);
  const int threads = args.get_int("ol-threads", 4);
  const int queries = args.get_int("ol-queries", 4000);
  const int batch = args.get_int("ol-batch", 32);
  const int deadline_us = args.get_int("ol-deadline-us", 20000);
  const int queue_cap = args.get_int("ol-queue-cap", 256);
  const auto policy = args.get("ol-policy", "shed");
  const auto out_path = args.get("ol-out", "");
  const auto targets =
      parse_qps_list(args.get("ol-qps", "1000,2000,5000,10000,20000,50000"));

  auto& w = workload(shards, vectors);
  std::printf(
      "open-loop: backend=%s vectors=%d shards=%d threads=%d queries=%d "
      "policy=%s queue=%d deadline=%dus\n",
      g_backend.c_str(), vectors, shards, threads, queries, policy.c_str(),
      queue_cap, deadline_us);

  tdam::Table table({"target QPS", "achieved QPS", "p50 (ms)", "p99 (ms)",
                     "shed rate", "ok/rej/shed/exp"});
  std::vector<OpenLoopRow> rows;
  for (const double target : targets) {
    runtime::AmServer server(
        w.index, {.engine = {.threads = threads},
                  .scheduler = {.max_batch = batch,
                                .queue_capacity = queue_cap,
                                .policy = parse_policy(policy)}});
    const auto interarrival = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / target));

    // Collector thread: drains futures in submit order and stamps each
    // completion, so the submit loop never blocks on results and the
    // arrival schedule stays open-loop.
    std::vector<std::future<runtime::ServedResult>> futures(
        static_cast<std::size_t>(queries));
    std::vector<Clock::time_point> arrivals(
        static_cast<std::size_t>(queries));
    std::vector<double> latency_ok;  // end-to-end, answered queries only
    std::size_t ok = 0, rejected = 0, shed = 0, expired = 0;
    std::atomic<int> submitted{0};
    std::thread collector([&] {
      for (int q = 0; q < queries; ++q) {
        while (submitted.load(std::memory_order_acquire) <= q)
          std::this_thread::yield();
        const auto served = futures[static_cast<std::size_t>(q)].get();
        const auto done = Clock::now();
        switch (served.status) {
          case runtime::QueryStatus::kOk:
            ++ok;
            latency_ok.push_back(std::chrono::duration<double>(
                                     done - arrivals[static_cast<std::size_t>(q)])
                                     .count());
            break;
          case runtime::QueryStatus::kRejected: ++rejected; break;
          case runtime::QueryStatus::kShed: ++shed; break;
          case runtime::QueryStatus::kDeadlineExpired: ++expired; break;
        }
      }
    });

    const auto t0 = Clock::now();
    auto next_arrival = t0;
    for (int q = 0; q < queries; ++q) {
      std::this_thread::sleep_until(next_arrival);
      const auto now = Clock::now();
      arrivals[static_cast<std::size_t>(q)] = now;
      const auto deadline = deadline_us > 0
                                ? now + std::chrono::microseconds(deadline_us)
                                : runtime::AmServer::kNoDeadline;
      futures[static_cast<std::size_t>(q)] = server.submit(
          w.queries[static_cast<std::size_t>(q) % w.queries.size()], kTopK,
          deadline);
      submitted.store(q + 1, std::memory_order_release);
      next_arrival += interarrival;
    }
    collector.join();
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    server.shutdown();

    std::sort(latency_ok.begin(), latency_ok.end());
    const auto quantile = [&](double p) {
      if (latency_ok.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(latency_ok.size() - 1));
      return latency_ok[idx];
    };
    const double offered = static_cast<double>(queries);
    OpenLoopRow row;
    row.target_qps = target;
    row.achieved_qps = static_cast<double>(ok) / wall;
    row.p50_ms = quantile(0.50) * 1e3;
    row.p99_ms = quantile(0.99) * 1e3;
    row.shed_rate = static_cast<double>(rejected + shed + expired) / offered;
    row.ok = static_cast<long>(ok);
    row.rejected = static_cast<long>(rejected);
    row.shed = static_cast<long>(shed);
    row.expired = static_cast<long>(expired);
    rows.push_back(row);
    table.add_row({tdam::Table::fmt(row.target_qps),
                   tdam::Table::fmt(row.achieved_qps),
                   tdam::Table::fmt(row.p50_ms),
                   tdam::Table::fmt(row.p99_ms),
                   tdam::Table::fmt(row.shed_rate),
                   std::to_string(ok) + "/" + std::to_string(rejected) + "/" +
                       std::to_string(shed) + "/" + std::to_string(expired)});
  }
  std::printf("%s", table.render().c_str());

  if (!out_path.empty()) {
    bench::JsonWriter json;
    json.begin_object()
        .field("bench", "runtime_throughput")
        .field("mode", "open_loop")
        .field("backend", g_backend)
        .key("config")
        .begin_object()
        .field("vectors", vectors)
        .field("shards", shards)
        .field("threads", threads)
        .field("queries", queries)
        .field("batch", batch)
        .field("deadline_us", deadline_us)
        .field("queue_capacity", queue_cap)
        .field("policy", policy)
        .end_object()
        .key("results")
        .begin_array();
    for (const auto& r : rows) {
      json.begin_object()
          .field("target_qps", r.target_qps)
          .field("achieved_qps", r.achieved_qps)
          .field("p50_ms", r.p50_ms)
          .field("p99_ms", r.p99_ms)
          .field("shed_rate", r.shed_rate)
          .field("ok", r.ok)
          .field("rejected", r.rejected)
          .field("shed", r.shed)
          .field("expired", r.expired)
          .end_object();
    }
    json.end_array().end_object();
    json.write_file(out_path);
    std::printf("wrote %s (%zu configurations)\n", out_path.c_str(),
                rows.size());
  }
  return 0;
}

void BM_ServeBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const int vectors = static_cast<int>(state.range(2));
  auto& w = workload(shards, vectors);
  runtime::SearchEngine engine(w.index, {.threads = threads});
  for (auto _ : state) {
    auto results = engine.submit_batch(w.queries, kTopK);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
  state.counters["QPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch,
      benchmark::Counter::kIsRate);
  state.SetLabel("backend=" + g_backend +
                 " threads=" + std::to_string(threads) +
                 " shards=" + std::to_string(shards) +
                 " vectors=" + std::to_string(vectors));
}

}  // namespace

// name suffix: /threads/shards/vectors
BENCHMARK(BM_ServeBatch)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 4, 8}, {1024, 16384}})
    ->Args({1, 8, 65536})
    ->Args({8, 8, 65536})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Custom main: peel our --backend flag off argv before google-benchmark
// sees (and rejects) it, and divert to the open-loop harness when
// --open-loop is given (that mode never touches google-benchmark).
int main(int argc, char** argv) {
  const tdam::CliArgs cli(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      g_backend = argv[i] + 10;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!registry().contains(g_backend)) {
    std::fprintf(stderr, "unknown --backend=%s (registered:", g_backend.c_str());
    for (const auto& n : registry().names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 1;
  }
  if (cli.get_bool("open-loop", false)) return run_open_loop(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
