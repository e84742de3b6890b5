// Query serving on the backend-agnostic runtime: the HDC classification
// workload of hdc_classification.cpp, re-hosted on the sharded
// multi-threaded engine over any registered similarity backend.
//
// Pipeline: train + quantize an HDC model, store its class hypervectors
// across the shards of a runtime::ShardedIndex (global row id == class
// label) built from the --backend registry entry, then serve the encoded
// test set and print the serving metrics table — wall-clock
// throughput/latency on this host next to the chosen backend's modeled
// hardware cost per query.  Accuracy is identical across the
// mismatch-family backends (they compute the same digit-mismatch
// distance); the similarity backends rank by their own metric, so their
// accuracy — and the modeled hardware numbers — can differ.
//
// Two serving modes:
//  * default — closed-loop: fixed-size batches through
//    SearchEngine::submit_batch;
//  * --async — the asynchronous front-end: every query goes through
//    AmServer::submit (own future, optional deadline), dynamic
//    micro-batching with a bounded admission queue.  Shed / rejected /
//    expired queries are reported per status and are NOT errors — the
//    process exits 0 as long as every future resolves.
//
// Observability:
//  * --stats        — additionally print the per-stage latency breakdown
//    (queue wait / batch wait / scan / merge; async mode populates all four,
//    closed-loop only scan/merge since queries never queue);
//  * --export=prom|json|both [--export-path=serving_metrics] — write the
//    metrics registry as Prometheus text / JSON snapshot files
//    (<prefix>.prom / <prefix>.json; the JSON also carries the sampled
//    flight-recorder spans in async mode).  Validated in CI by
//    scripts/check_metrics_export.py.
//
//   $ ./serving [--backend=behavioral|digital|cam|exact|cosine|dot]
//               [--dims=1024]
//               [--bits=2] [--shards=4] [--threads=4] [--batch=32] [--k=3]
//               [--train=800] [--test=300] [--stats] [--export=prom|json|both]
//   $ ./serving --async [--policy=block|reject|shed] [--queue-cap=1024]
//               [--deadline-us=0]   # 0 = no deadline
//               [--store-rate=0]  # rows/s stored live while queries run
//   $ ./serving --backend=cosine --mvm   # also demo y = A·x on the same rows
//
// Similarity backends (--backend=cosine / dot) rank by descending score;
// accuracy is reported for them too (cosine usually lands close to the
// mismatch backends on this workload, raw dot is biased toward long
// vectors).  --mvm additionally runs the matrix-vector entry point
// (core::mvm) over the identical class-vector rows with the first test
// query — the TD-CiM homogeneous-array claim: one packed store serving
// both associative search and MVM.
//
// --store-rate=N (async only) streams N random stores per second from a
// background thread for the whole serving run — the sanitizer-CI smoke for
// the lock-free read path: queries, stores, and background compaction all
// race on the same index.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "am/calibration.h"
#include "core/mvm.h"
#include "hdc/dataset.h"
#include "hdc/encoder.h"
#include "hdc/model.h"
#include "obs/export.h"
#include "runtime/backends.h"
#include "runtime/engine.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "util/cli.h"

using namespace tdam;

namespace {

runtime::AdmissionPolicy parse_policy(const std::string& name) {
  if (name == "block") return runtime::AdmissionPolicy::kBlock;
  if (name == "reject") return runtime::AdmissionPolicy::kReject;
  if (name == "shed") return runtime::AdmissionPolicy::kShedOldest;
  std::fprintf(stderr, "unknown --policy=%s (block|reject|shed)\n",
               name.c_str());
  std::exit(1);
}

struct Tally {
  int ok = 0, rejected = 0, shed = 0, expired = 0;
  int top1 = 0, topk = 0;
};

// Writes <prefix>.prom and/or <prefix>.json per --export; recorder may be
// null (closed-loop mode has no flight recorder).
void write_exports(const std::string& mode, const std::string& prefix,
                   const runtime::ServingMetrics& metrics,
                   const obs::FlightRecorder* recorder) {
  if (mode.empty()) return;
  const bool prom = mode == "prom" || mode == "both";
  const bool json = mode == "json" || mode == "both";
  if (!prom && !json) {
    std::fprintf(stderr, "unknown --export=%s (prom|json|both)\n",
                 mode.c_str());
    std::exit(1);
  }
  if (prom) {
    const auto path = prefix + ".prom";
    std::ofstream out(path);
    obs::export_prometheus(out, metrics.registry());
    std::printf("wrote %s\n", path.c_str());
  }
  if (json) {
    const auto path = prefix + ".json";
    std::ofstream out(path);
    obs::export_json(out, metrics.registry(), recorder);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string backend = args.get("backend", "behavioral");
  const int dims = args.get_int("dims", 1024);
  const int bits = args.get_int("bits", 2);
  const int shards = args.get_int("shards", 4);
  const int threads = args.get_int("threads", 4);
  const int batch = args.get_int("batch", 32);
  const int k = args.get_int("k", 3);
  const int train_n = args.get_int("train", 800);
  const int test_n = args.get_int("test", 300);
  const bool async = args.get_bool("async", false);
  const bool stats = args.get_bool("stats", false);
  const std::string export_mode = args.get("export", "");
  const std::string export_path = args.get("export-path", "serving_metrics");

  // --- train and quantize the classifier (as in hdc_classification) ---
  Rng rng(7);
  const auto split = hdc::make_isolet_like(rng, train_n, test_n);
  hdc::Encoder encoder(split.train.num_features(), dims, rng);
  const auto enc_train = encoder.encode_dataset(split.train, dims);
  const auto enc_test = encoder.encode_dataset(split.test, dims);
  std::vector<int> labels_train, labels_test;
  for (std::size_t i = 0; i < split.train.size(); ++i)
    labels_train.push_back(split.train.label(i));
  for (std::size_t i = 0; i < split.test.size(); ++i)
    labels_test.push_back(split.test.label(i));
  hdc::HdcModel model(split.train.num_classes(), dims);
  model.train(enc_train, labels_train);
  const hdc::QuantizedModel qmodel(model, bits);

  // --- load the class vectors into the sharded index ---
  am::ChainConfig config;
  config.encoding = am::Encoding(bits);
  config.vdd = 0.6;
  Rng cal_rng(8);
  const auto cal = am::calibrate_chain(config, cal_rng);
  const auto registry =
      runtime::default_registry(cal, {.stages = dims});
  runtime::ShardedIndex index(registry,
                              {.backend = backend, .shards = shards});
  for (int c = 0; c < qmodel.num_classes(); ++c)
    index.store(qmodel.class_digits(c));  // global row id == class label
  std::printf(
      "index: %d class vectors of %d %d-bit digits on %d '%s' shards "
      "(%.1f KiB resident)\n",
      index.size(), dims, bits, shards, index.backend_name().c_str(),
      static_cast<double>(index.resident_bytes()) / 1024.0);

  std::vector<std::vector<int>> queries;
  for (std::size_t i = 0; i < labels_test.size(); ++i)
    queries.push_back(qmodel.quantize_query(
        enc_test.data() + i * static_cast<std::size_t>(dims)));

  if (args.get_bool("mvm", false) && !queries.empty()) {
    // MVM demo: the identical packed rows the index serves top-k from also
    // answer y = A·x through the same dispatched dot kernel.
    core::DigitMatrix matrix(dims, index.levels());
    for (int c = 0; c < qmodel.num_classes(); ++c)
      matrix.append(qmodel.class_digits(c));
    const auto product = core::mvm(matrix, queries.front());
    std::int64_t best = 0;
    int best_row = -1;
    for (std::size_t r = 0; r < product.values.size(); ++r)
      if (best_row < 0 || product.values[r] > best) {
        best = product.values[r];
        best_row = static_cast<int>(r);
      }
    std::printf(
        "mvm: y = A·x over %d rows x %d digits -> argmax y[%d] = %lld "
        "(query label %d; modeled: %d passes, %.1f ns, %.2f pJ)\n",
        matrix.rows(), dims, best_row, static_cast<long long>(best),
        labels_test.front(), product.cost.passes, product.cost.latency * 1e9,
        product.cost.energy * 1e12);
  }

  Tally tally;
  const auto score = [&](std::size_t q, const std::vector<core::TopKEntry>&
                                             entries) {
    const int label = labels_test[q];
    if (!entries.empty() && entries.front().row == label) ++tally.top1;
    for (const auto& e : entries)
      if (e.row == label) {
        ++tally.topk;
        break;
      }
  };

  if (async) {
    // --- asynchronous front-end: per-query futures over AmServer ---
    const auto policy = parse_policy(args.get("policy", "block"));
    const int queue_cap = args.get_int("queue-cap", 1024);
    const int deadline_us = args.get_int("deadline-us", 0);
    const int store_rate = args.get_int("store-rate", 0);
    runtime::AmServer server(
        index, {.engine = {.threads = threads},
                .scheduler = {.max_batch = batch,
                              .queue_capacity = queue_cap,
                              .policy = policy}});
    // Live ingest stream: paced random stores racing the queries below.
    // Rows land beyond the class labels, so they can only dilute top-k —
    // accuracy is reported, not asserted, in this smoke.
    std::atomic<bool> stop_stores{false};
    std::atomic<long> stores_done{0};
    std::thread store_thread;
    if (store_rate > 0) {
      store_thread = std::thread([&] {
        Rng srng(99);
        std::vector<int> digits(static_cast<std::size_t>(dims));
        const auto start = std::chrono::steady_clock::now();
        const auto step =
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(1.0 / store_rate));
        for (long i = 0; !stop_stores.load(std::memory_order_relaxed); ++i) {
          std::this_thread::sleep_until(start + step * i);
          if (stop_stores.load(std::memory_order_relaxed)) break;
          for (auto& d : digits)
            d = static_cast<int>(srng.uniform_below(
                static_cast<std::uint64_t>(index.levels())));
          server.store(digits);
          stores_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::vector<std::future<runtime::ServedResult>> futures;
    futures.reserve(queries.size());
    for (const auto& q : queries) {
      const auto deadline =
          deadline_us > 0
              ? std::chrono::steady_clock::now() +
                    std::chrono::microseconds(deadline_us)
              : runtime::AmServer::kNoDeadline;
      futures.push_back(server.submit(q, k, deadline));
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
      const auto served = futures[q].get();
      switch (served.status) {
        case runtime::QueryStatus::kOk:
          ++tally.ok;
          score(q, served.result.entries);
          break;
        case runtime::QueryStatus::kRejected: ++tally.rejected; break;
        case runtime::QueryStatus::kShed: ++tally.shed; break;
        case runtime::QueryStatus::kDeadlineExpired: ++tally.expired; break;
      }
    }
    if (store_thread.joinable()) {
      stop_stores.store(true, std::memory_order_relaxed);
      store_thread.join();
      std::printf("live ingest: %ld rows stored at %d rows/s "
                  "(generation %llu, %d rows resident)\n",
                  stores_done.load(), store_rate,
                  static_cast<unsigned long long>(server.generation()),
                  index.size());
    }
    server.shutdown();
    std::printf(
        "async-served %zu queries on '%s' (policy=%s, queue=%d, "
        "max_batch=%d, deadline=%dus)\n",
        queries.size(), backend.c_str(), args.get("policy", "block").c_str(),
        queue_cap, batch, deadline_us);
    std::printf("status: ok=%d rejected=%d shed=%d expired=%d\n", tally.ok,
                tally.rejected, tally.shed, tally.expired);
    if (tally.ok > 0)
      std::printf("top-1 accuracy (answered): %.3f   top-%d hit rate: %.3f\n",
                  static_cast<double>(tally.top1) /
                      static_cast<double>(tally.ok),
                  k,
                  static_cast<double>(tally.topk) /
                      static_cast<double>(tally.ok));
    std::printf("%s", server.metrics().summary_table().c_str());
    if (stats) {
      std::printf("per-stage latency breakdown:\n%s",
                  server.metrics().stage_table().c_str());
      std::printf("flight recorder: mode=%s recorded=%llu retained=%zu\n",
                  server.recorder().mode() == obs::TraceMode::kFull
                      ? "full"
                      : (server.recorder().enabled() ? "sampled" : "off"),
                  static_cast<unsigned long long>(
                      server.recorder().recorded()),
                  server.recorder().snapshot().size());
    }
    write_exports(export_mode, export_path, server.metrics(),
                  &server.recorder());
    // Degraded queries are accounted, not errors; only an unresolved future
    // (which would have thrown above) fails this smoke.
    return 0;
  }

  // --- closed-loop: fixed-size batches straight into the engine ---
  runtime::SearchEngine engine(index, {.threads = threads});
  int served = 0;
  std::vector<std::vector<int>> pending;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    pending.push_back(queries[i]);
    const bool flush =
        static_cast<int>(pending.size()) == batch || i + 1 == queries.size();
    if (!flush) continue;
    const auto results = engine.submit_batch(pending, k);
    for (std::size_t q = 0; q < results.size(); ++q)
      score(static_cast<std::size_t>(served) + q, results[q].entries);
    served += static_cast<int>(results.size());
    pending.clear();
  }

  std::printf("served %d queries on '%s' with %d threads (batch=%d, k=%d)\n",
              served, backend.c_str(), threads, batch, k);
  std::printf("top-1 accuracy: %.3f   top-%d hit rate: %.3f\n",
              static_cast<double>(tally.top1) / static_cast<double>(served), k,
              static_cast<double>(tally.topk) / static_cast<double>(served));
  std::printf("%s", engine.metrics().summary_table().c_str());
  if (stats)
    std::printf("per-stage latency breakdown:\n%s",
                engine.metrics().stage_table().c_str());
  write_exports(export_mode, export_path, engine.metrics(), nullptr);
  return 0;
}
