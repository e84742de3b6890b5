// Measured cost of the observability layer on the serving hot path.
//
// Runs the same closed-loop AmServer workload with tracing off, sampled
// (1-in-16, the default), and full, interleaving repetitions round-robin so
// frequency drift and cache warmth hit every mode equally, then reports the
// median wall-QPS per mode and the relative overhead vs. off.  The repo's
// acceptance bar is that sampled mode costs <= 5% wall-QPS:
//
//   $ ./bench_obs_overhead --check=0.05       # non-zero exit past the bar
//   $ ./bench_obs_overhead                    # report-only
//       [--vectors=4096] [--shards=2] [--threads=2] [--queries=2000]
//       [--reps=5] [--batch=32] [--wire]
//
// --wire measures the same three modes over the full Layer-8 path instead:
// a loopback AmTcpServer plus one pipelined AmClient, so the sampled-mode
// budget also covers the wire-stage stamping (io_recv/decode/submit_queue/
// encode/io_send) and the deferred record at io_send.
//
// In CI this runs report-only: shared runners are too noisy to gate on a
// few percent of wall time, so the gate is meant for quiet local machines.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <vector>

#include "am/calibration.h"
#include "am/words.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "runtime/backends.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace tdam;

namespace {

constexpr int kStages = 64;
constexpr int kLevels = 4;
constexpr int kTopK = 10;

struct Workload {
  runtime::ShardedIndex index;
  std::vector<std::vector<int>> queries;
};

Workload make_workload(const core::BackendRegistry& registry, int shards,
                       int vectors) {
  Workload w{runtime::ShardedIndex(registry, {.shards = shards}), {}};
  Rng rng(7);
  for (int v = 0; v < vectors; ++v)
    w.index.store(am::random_word(rng, kStages, kLevels));
  for (int q = 0; q < 64; ++q)
    w.queries.push_back(am::random_word(rng, kStages, kLevels));
  return w;
}

// One closed-loop pass: submit every query through the async front-end as
// fast as futures resolve, return wall-QPS.  Blocking admission keeps the
// workload identical across modes (nothing is shed or rejected).
double run_once(Workload& w, const obs::TraceConfig& trace, int threads,
                int queries, int batch) {
  runtime::AmServer server(
      w.index, {.engine = {.threads = threads},
                .scheduler = {.max_batch = batch,
                              .queue_capacity = 4096,
                              .policy = runtime::AdmissionPolicy::kBlock},
                .trace = trace});
  std::vector<std::future<runtime::ServedResult>> futures;
  futures.reserve(static_cast<std::size_t>(queries));
  const auto t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < queries; ++q)
    futures.push_back(server.submit(
        w.queries[static_cast<std::size_t>(q) % w.queries.size()], kTopK));
  for (auto& f : futures) f.get();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.shutdown();
  return static_cast<double>(queries) / wall;
}

// The same pass over loopback TCP: an ephemeral-port AmTcpServer and one
// pipelined AmClient keeping a bounded window in flight.  Wall-QPS now
// includes framing, the three server thread hops, and — when tracing is on
// — the wire-stage stamps and the io_send-time record.
double run_once_wire(Workload& w, const obs::TraceConfig& trace, int threads,
                     int queries, int batch) {
  runtime::AmServer server(
      w.index, {.engine = {.threads = threads},
                .scheduler = {.max_batch = batch,
                              .queue_capacity = 4096,
                              .policy = runtime::AdmissionPolicy::kBlock},
                .trace = trace});
  net::AmTcpServer tcp(server, {.io_threads = 2});
  net::AmClient client("127.0.0.1", tcp.port());
  std::vector<std::vector<std::uint16_t>> wire_queries;
  wire_queries.reserve(w.queries.size());
  for (const auto& q : w.queries) {
    auto& digits = wire_queries.emplace_back();
    digits.reserve(q.size());
    for (int d : q) digits.push_back(static_cast<std::uint16_t>(d));
  }
  constexpr int kWindow = 64;  // in-flight cap, same spirit as loadgen
  int sent = 0;
  int received = 0;
  net::AmClient::Reply reply;
  const auto t0 = std::chrono::steady_clock::now();
  while (received < queries) {
    while (sent < queries && sent - received < kWindow) {
      client.send_query(
          wire_queries[static_cast<std::size_t>(sent) % wire_queries.size()],
          kTopK);
      ++sent;
    }
    if (!client.recv(reply)) break;  // server hung up — count what we have
    ++received;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  tcp.stop();
  server.shutdown();
  return static_cast<double>(received) / wall;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int vectors = args.get_int("vectors", 4096);
  const int shards = args.get_int("shards", 2);
  const int threads = args.get_int("threads", 2);
  const int queries = args.get_int("queries", 2000);
  const int reps = args.get_int("reps", 5);
  const int batch = args.get_int("batch", 32);
  const double check = args.get_double("check", -1.0);
  const bool wire = args.has("wire");

  Rng rng(1);
  const auto cal = am::calibrate_chain(am::ChainConfig{}, rng);
  const auto registry = runtime::default_registry(cal, {.stages = kStages});
  auto w = make_workload(registry, shards, vectors);

  struct Mode {
    const char* name;
    obs::TraceConfig trace;
  };
  const Mode modes[] = {
      {"off", {.mode = obs::TraceMode::kOff}},
      {"sampled", {.mode = obs::TraceMode::kSampled, .sample_every = 16}},
      {"full", {.mode = obs::TraceMode::kFull}},
  };
#ifdef TDAM_TRACE_DISABLED
  std::printf(
      "bench_obs_overhead: built with TDAM_DISABLE_TRACING — every mode "
      "below is pinned to off, overhead should read ~0\n");
#endif
  std::printf(
      "obs overhead: path=%s vectors=%d shards=%d threads=%d queries=%d "
      "reps=%d batch=%d\n",
      wire ? "wire (loopback TCP)" : "in-process", vectors, shards, threads,
      queries, reps, batch);

  const auto run = wire ? run_once_wire : run_once;
  std::vector<double> qps[3];
  run(w, modes[0].trace, threads, queries, batch);  // warm-up, discarded
  for (int r = 0; r < reps; ++r)
    for (std::size_t m = 0; m < 3; ++m)
      qps[m].push_back(run(w, modes[m].trace, threads, queries, batch));

  const double off_qps = median(qps[0]);
  Table table({"trace mode", "median QPS", "vs off"});
  double overheads[3] = {0.0, 0.0, 0.0};
  for (std::size_t m = 0; m < 3; ++m) {
    const double q = median(qps[m]);
    overheads[m] = (off_qps - q) / off_qps;
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", -overheads[m] * 1e2);
    table.add_row({modes[m].name, Table::fmt(q), pct});
  }
  std::printf("%s", table.render().c_str());

  if (check >= 0.0) {
    if (overheads[1] > check) {
      std::fprintf(stderr,
                   "bench_obs_overhead: FAIL: sampled-mode overhead %.2f%% "
                   "exceeds the %.2f%% budget\n",
                   overheads[1] * 1e2, check * 1e2);
      return 1;
    }
    std::printf("bench_obs_overhead: OK: sampled-mode overhead %.2f%% within "
                "the %.2f%% budget\n",
                overheads[1] * 1e2, check * 1e2);
  }
  return 0;
}
