// The serving benchmark: three workloads against the real stack in one
// process, every answer checked against a brute-force reference.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// Each run generates its inputs from --seed, writes them as an index file
// (core::save_index_file, one segment per shard, round-robin ids), then
// starts the stack from that file through public calls only: calibration,
// ShardedIndex::load, AmServer (2 engine threads, default scheduler:
// max_batch 32, max_delay 2 ms) and AmTcpServer on a loopback port.
// Clients use at most 3 threads and 3 connections.
//
// Workloads (2-bit digits, 256 stages, 4 shards):
//  * wire_light — behavioral backend, 4,096 rows (256 KiB, fits in L2),
//    k=3, open loop at 400 QPS on 1 connection.  Fixed per-query overhead
//    dominates: the batching timer, thread hops and wire handling.  It
//    takes the engine's per-query path (query_tile 1), so kernel and
//    select changes should leave it flat.
//  * scan_saturate — exact backend, 65,536 rows (4 MiB, more than one
//    core's L2), k=10, closed loop on 2 connections with 32 queries in
//    flight each.  Capacity is bound by scan plus select on the tiled
//    engine path.  With 64 queries in flight (twice max_batch) a full batch
//    always waits behind the running one, so every batch is full and none
//    waits for the timer; with 32 in flight the loop flipped between full
//    and split batches from run to run, which made its p99 unsteady.
//  * ingest_mixed — exact backend, 8,192 starting rows, k=3, default seal
//    and compaction settings with background compaction on.  Open-loop
//    reads at 400 QPS on 1 connection beside 1 writer connection sending
//    16-row STORE_BATCH frames back to back, each waiting for its reply.
//    Reads and writes share the index layer and the TCP submit thread,
//    which applies each frame row by row, so reads queue behind writes and
//    a gain on one side that costs the other shows up.  The writer is
//    unpaced so that its rate is the program's write capacity under read
//    load; a paced writer only reports its own pace back.
//
// --trace 0 prints the end-to-end metrics: setup_s (the fastest of 9 cold
// starts, 5 before the read window and 4 after it, each from calibration
// to the first reply; the index file is written before the clock starts),
// query_p50_ms (client wall time per QUERY; open loop: from the instant
// the query was due, closed loop: from the send), throughput_qps (correct
// kOk replies per second; closed loop: the median over groups of 1,024),
// ingest_rows_per_s (rows acknowledged per second by an unpaced writer;
// the median over its seal cycles) and peak_rss_mb (VmHWM).  Both rates
// use medians so that a stall of the shared host moves a group, not the
// figure.  The read-only workloads have no writer beside their reads, so
// their writes come from a probe on the idle server after the read window:
// kProbeFrames back-to-back frames.
//
// Every run also prints the query p99 (a median over groups of kTailGroup
// replies) and the STORE_BATCH round-trip p50 and p99.  They are not
// end-to-end metrics because a shared 4-vCPU host cannot hold them to a
// bound: over ten runs of one build the wire_light p99 ranged from 4 to
// 29 ms, following the host's scheduling stalls.  The traced run reports
// the client p99 with the layer budget.
//
// --trace 1 is the traced run.  It repeats the read window untraced and
// traced (half of --seconds each) to give the tracing overhead as the
// relative change in the client p50 between the two, replays the
// same schedule in-process through AmServer::submit, then times each layer
// from outside through its public calls on the same inputs, recording one
// span per call.  It prints the per-layer metrics and a latency budget of
// the median query: one self time per layer on the query path plus the
// part of the client p50 no layer accounts for.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics.  A result file (host record included) and, for traced runs, the
// span dump are written under --out-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/kernels/kernels.h"
#include "load.h"
#include "inputs.h"
#include "layers.h"
#include "stack.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

constexpr int kColdStartsBefore = 5;
constexpr int kColdStartsAfter = 4;
constexpr double kWarmupSeconds = 0.5;
// Closed-loop replies per throughput sample: 32 full batches.
constexpr std::size_t kRateGroup = 1024;
// Server span ring of the traced window: room for every query it sends.
constexpr std::size_t kFullTraceCapacity = 1 << 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/servebench/results";
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + key + "'");
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("--" + key + " needs a value");
    }
    kv[key] = value;
  }
  for (const auto& [key, value] : kv) {
    if (key == "workload") args.workload = value;
    else if (key == "seed") args.seed = std::stoull(value);
    else if (key == "seconds") args.seconds = std::stod(value);
    else if (key == "trace") args.trace = std::stoi(value);
    else if (key == "out-dir") args.out_dir = value;
    else throw std::invalid_argument("unknown flag --" + key);
  }
  if (find_workload(args.workload) == nullptr)
    throw std::invalid_argument("unknown --workload '" + args.workload + "'");
  if (!(args.seconds > 0.0) || args.seconds > 600.0)
    throw std::invalid_argument("--seconds must be in (0, 600]");
  if (args.trace != 0 && args.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra lines for the result file

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", why.c_str());
    notes.push_back("check failed: " + why);
  }
};

std::string host_record() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const auto& kernels = tdam::core::kernels::active();
  std::string isa = kernels.name;
  if (kernels.isa == tdam::core::kernels::Isa::kAvx512)
    isa += tdam::core::kernels::avx512_uses_vpopcntdq() ? "+vpopcntdq"
                                                        : "+nibble-lut";
  return "isa=" + isa +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu + "\" build=" SERVEBENCH_BUILD_TYPE;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// The read window of one workload, plus its writer when it has one.
struct Window {
  ReadRun reads;
  WriteRun writes;
};

std::int64_t start_soon() { return now_ns() + 50'000'000; }

Window run_window(int port, const Inputs& inputs, double seconds,
                  SpanLog* log) {
  const Workload& w = inputs.workload();
  Window out;
  const std::int64_t start = start_soon();
  if (w.loop == Loop::kClosed) {
    out.reads = wire_closed_loop(port, inputs, w.connections, w.outstanding,
                                 seconds, start, log);
    return out;
  }
  SpanLog::Track* read_track = log != nullptr ? &log->track() : nullptr;
  if (!w.writer) {
    out.reads =
        wire_open_loop(port, inputs, w.read_qps, seconds, start, read_track);
    return out;
  }
  SpanLog::Track* write_track = log != nullptr ? &log->track() : nullptr;
  Worker reader([&] {
    out.reads =
        wire_open_loop(port, inputs, w.read_qps, seconds, start, read_track);
  });
  out.writes = wire_writer(port, inputs, seconds, 0, start, write_track);
  reader.join_rethrow();
  return out;
}

// The read window replayed in-process; `writes` adds the workload's writer.
ReplayRun run_replay(tdam::runtime::AmServer& server, const Inputs& inputs,
                     double seconds, bool writes, SpanLog& log) {
  const Workload& w = inputs.workload();
  const std::int64_t start = start_soon();
  if (w.loop == Loop::kClosed)
    return replay_closed_loop(server, inputs, w.connections, w.outstanding,
                              seconds, start, &log);
  SpanLog::Track& track = log.track();
  if (!writes || !w.writer)
    return replay_open_loop(server, inputs, w.read_qps, seconds, start, &track);
  ReplayRun out;
  Worker reader([&] {
    out = replay_open_loop(server, inputs, w.read_qps, seconds, start, &track);
  });
  replay_writer(server, inputs, seconds, start);
  reader.join_rethrow();
  return out;
}

// Tallies the reads of a window: attempted, failed (any non-kOk reply,
// unanswered request or wrong top-k) and the latencies and rate of the
// correct in-window ones.
struct ReadTally {
  std::vector<double> latency_ms;
  std::vector<std::int64_t> reply_ns;
  long correct_in_window = 0;
};

ReadTally tally_reads(const ReadRun& run, Reference& reference,
                      Outcome& outcome) {
  std::vector<Answer> answers;
  std::vector<const ReadRecord*> answered;
  outcome.attempted += static_cast<long>(run.reads.size());
  outcome.failed += run.unmatched;
  if (run.unmatched > 0)
    outcome.fail(std::to_string(run.unmatched) + " replies matched no request");
  for (const auto& r : run.reads) {
    if (!r.answered || r.code != tdam::net::WireCode::kOk) {
      ++outcome.failed;
      continue;
    }
    answers.push_back({r.pool, static_cast<int>(r.generation), r.entries});
    answered.push_back(&r);
  }
  const long wrong = reference.check(answers);
  outcome.failed += wrong;
  if (wrong > 0) outcome.fail(std::to_string(wrong) + " wrong top-k answers");
  ReadTally tally;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].correct || !answered[i]->in_window) continue;
    ++tally.correct_in_window;
    tally.latency_ms.push_back(answered[i]->latency_ms);
    tally.reply_ns.push_back(answered[i]->reply_ns);
  }
  return tally;
}

void tally_writes(const WriteRun& run, Outcome& outcome) {
  outcome.attempted += run.frames;
  outcome.failed += run.failed;
  if (run.failed > 0)
    outcome.fail(std::to_string(run.failed) +
                 " STORE_BATCH frames not stored as sent");
}

void check_first_replies(const std::vector<tdam::net::QueryReply>& replies,
                         Reference& reference, Outcome& outcome) {
  std::vector<Answer> answers;
  for (const auto& r : replies)
    answers.push_back({0, static_cast<int>(r.generation), r.entries});
  outcome.attempted += static_cast<long>(answers.size());
  const long wrong = reference.check(answers);
  outcome.failed += wrong;
  if (wrong > 0) outcome.fail("a first reply of set-up was wrong");
}

std::string lateness_line(const char* what, const std::vector<double>& late) {
  if (late.empty()) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "generator lateness (%s): p50 %.3f ms, p99 %.3f ms, max %.3f "
                "ms over %zu sends",
                what, quantile(late, 0.5), quantile(late, 0.99),
                quantile(late, 1.0), late.size());
  return buf;
}

// Cold starts the stack `count` times; the last one stays up.
ColdStart cold_starts(const std::string& index_path, const Inputs& inputs,
                      Reference& reference, Outcome& outcome, int count,
                      std::vector<SetupTimes>& times, SpanLog::Track* track) {
  ColdStart live;
  std::vector<tdam::net::QueryReply> first_replies;
  for (int i = 0; i < count; ++i) {
    live.stack.reset();
    live.calibrated.reset();
    live = cold_start(index_path, inputs.query_wire(0),
                      inputs.workload().k, track);
    times.push_back(live.times);
    first_replies.push_back(live.first_reply);
  }
  check_first_replies(first_replies, reference, outcome);
  // A loaded index holds one segment per shard, below the compaction
  // threshold; anything else means set-up left compaction work behind.
  if (live.stack->index().pin()->segments != kShards)
    outcome.fail("loaded index is not one segment per shard");
  return live;
}

std::vector<double> field_of(const std::vector<SetupTimes>& times,
                             double SetupTimes::*field) {
  std::vector<double> v;
  for (const auto& t : times) v.push_back(t.*field);
  return v;
}

// Reads the workload's read side for kWarmupSeconds before a measured
// window, so lazy set-up and cold caches are not charged to the window.
// Its answers are checked like any other.
void warm_up_wire(int port, const Inputs& inputs, Reference& reference,
                  Outcome& outcome) {
  const Workload& w = inputs.workload();
  const ReadRun run =
      w.loop == Loop::kClosed
          ? wire_closed_loop(port, inputs, w.connections, w.outstanding,
                             kWarmupSeconds, start_soon(), nullptr)
          : wire_open_loop(port, inputs, w.read_qps, kWarmupSeconds,
                           start_soon(), nullptr);
  tally_reads(run, reference, outcome);
}

ReadRun replay_as_reads(const ReplayRun& replay) {
  ReadRun out;
  for (const auto& r : replay.reads) {
    ReadRecord rec;
    rec.pool = r.pool;
    rec.answered = true;
    rec.in_window = r.in_window;
    rec.code = tdam::net::to_wire_code(r.status);
    rec.generation = r.generation;
    rec.entries = r.entries;
    out.reads.push_back(std::move(rec));
  }
  return out;
}

void run_untraced(const Args& args, const Inputs& inputs,
                  const std::string& index_path, Reference& reference,
                  Outcome& outcome) {
  const Workload& w = inputs.workload();
  std::vector<SetupTimes> times;
  ColdStart live = cold_starts(index_path, inputs, reference, outcome,
                               kColdStartsBefore, times, nullptr);
  const int port = live.stack->port();

  warm_up_wire(port, inputs, reference, outcome);
  const Window window = run_window(port, inputs, args.seconds, nullptr);
  WriteRun writes = window.writes;
  if (!w.writer)
    writes = wire_writer(port, inputs, 0.0, kProbeFrames, start_soon(), nullptr);
  live.stack.reset();
  // More cold starts after the window: set-up is CPU-bound and the host's
  // speed drifts, so samples at both ends of the run find its fast phase
  // more often than samples at one end.
  cold_starts(index_path, inputs, reference, outcome, kColdStartsAfter, times,
              nullptr);

  const ReadTally reads = tally_reads(window.reads, reference, outcome);
  tally_writes(writes, outcome);
  outcome.notes.push_back(lateness_line("reads", window.reads.late_ms));

  // The fastest cold start: the others differ from it by how busy the
  // shared host was, not by what the program did.
  const auto setup = field_of(times, &SetupTimes::total_s);
  outcome.add("setup_s", "s", *std::min_element(setup.begin(), setup.end()));
  char latency[240];
  std::snprintf(latency, sizeof latency,
                "latency: query_p99_ms %.4f over %zu replies; store_p50_ms "
                "%.4f, store_p99_ms %.4f over %zu frames",
                grouped_quantile(reads.latency_ms, 0.99, kTailGroup),
                reads.latency_ms.size(), quantile(writes.latency_ms, 0.50),
                quantile(writes.latency_ms, 0.99), writes.latency_ms.size());
  outcome.notes.push_back(latency);
  outcome.add("query_p50_ms", "ms", quantile(reads.latency_ms, 0.50));
  // Open loop: every correct reply over the window, which falls short of
  // the offered rate only when a backlog grows.  Closed loop: the median
  // over groups of kRateGroup replies.
  outcome.add("throughput_qps", "1/s",
              w.loop == Loop::kOpen
                  ? static_cast<double>(reads.correct_in_window) /
                        window.reads.elapsed_s
                  : median_group_rate(reads.reply_ns, window.reads.start_ns,
                                      kRateGroup));
  // The unpaced writer's rate over each whole seal cycle of frames; the
  // median over cycles.
  outcome.add("ingest_rows_per_s", "1/s",
              kWriteBatch * median_group_rate(writes.ack_ns, writes.start_ns,
                                              kSealCycleFrames));
  outcome.add("peak_rss_mb", "MiB", peak_rss_mb());
}

// Latency budget of the median query over the traced wire window.  For
// each query, the server's own span of it (recorded in full mode, matched
// by trace id) splits the client's wall time into layer self times:
//   net     — the client's send_query call, frame receipt to submit thread
//             pickup (decode, submit hop), fulfil to last byte out
//             (completion hop, encode, send);
//   server  — pickup to dispatch, less the snapshot pin: admission, queue
//             and batch wait;
//   index   — the snapshot pin (ShardedIndex::pin, timed standalone);
//   engine  — dispatch to fulfil, less the scan that blocked the batch;
//   core    — that scan's selection share, and
//   kernels — its kernel share, split by the standalone top-k over
//             kernel-only ratio.
// What is left of the client's wall time is measured by no layer: the
// loopback transit both ways, the client's receive, its threads' wake-ups
// and, in open loop, how late the sender ran.  Each layer row is the mean
// over the queries whose client time ranks within kBudgetBand (a share of
// all queries) of the median, so the rows describe the median query, and
// budget.unaccounted_ms is the client p50 minus their sum: that query's
// unmeasured remainder.
constexpr double kBudgetBand = 0.05;

void add_budget(const ReadRun& traced,
                const std::vector<tdam::obs::SpanRecord>& spans,
                const ScanLayers& scan, const IndexLayer& index,
                int query_tile, Outcome& outcome) {
  std::map<std::uint64_t, const tdam::obs::SpanRecord*> by_id;
  std::map<std::int64_t, std::pair<int, double>> batches;  // n, scan ms
  for (const auto& s : spans) {
    if (s.submit_queue_ns < 0 || s.dispatch_ns < s.submit_queue_ns ||
        s.fulfill_ns < s.dispatch_ns || s.io_send_ns < s.fulfill_ns ||
        s.scan_ns < 0)
      continue;
    by_id[s.trace_id] = &s;
    auto& b = batches[s.enqueue_ns + s.dispatch_ns];
    ++b.first;
    b.second += static_cast<double>(s.scan_ns) * 1e-6;
  }
  const double pin_ms = index.pin_ns * 1e-6;
  constexpr std::size_t kLayers = 6;
  const char* const names[kLayers] = {
      "budget.net_ms",    "budget.server_ms", "budget.index_ms",
      "budget.engine_ms", "budget.core_ms",   "budget.kernels_ms"};
  struct Query {
    double client;
    double layer[kLayers];
  };
  std::vector<Query> queries;
  std::vector<double> client;
  long unmatched = 0;
  for (const auto& r : traced.reads) {
    if (r.code != tdam::net::WireCode::kOk || !r.in_window) continue;
    client.push_back(r.latency_ms);
    const auto it = by_id.find(r.trace_id);
    if (it == by_id.end()) {
      ++unmatched;
      continue;
    }
    const auto& s = *it->second;
    const auto& [n, scan_sum] = batches[s.enqueue_ns + s.dispatch_ns];
    // A batch's tiles spread over the engine threads, so its scan blocks
    // the batch for its summed scan time over the threads it can use.
    const int tiles = (n + query_tile - 1) / query_tile;
    const double scan_crit = scan_sum / std::min(kEngineThreads, tiles);
    const double kernel = scan_crit / scan.select_ratio;
    const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-6; };
    queries.push_back(
        {r.latency_ms,
         {r.send_ms + ms(s.submit_queue_ns) + ms(s.io_send_ns - s.fulfill_ns),
          ms(s.dispatch_ns - s.submit_queue_ns) - pin_ms, pin_ms,
          ms(s.fulfill_ns - s.dispatch_ns) - scan_crit, scan_crit - kernel,
          kernel}});
  }
  if (unmatched > 0 || queries.empty())
    outcome.fail(std::to_string(unmatched) + " of " +
                 std::to_string(client.size()) +
                 " traced queries have no server span");
  const double client_p50 = quantile(client, 0.5);
  std::sort(queries.begin(), queries.end(),
            [](const Query& a, const Query& b) { return a.client < b.client; });
  const auto rank = [&](double p) {
    return static_cast<std::size_t>(p * static_cast<double>(queries.size()));
  };
  const std::size_t first = rank(0.5 - kBudgetBand);
  const std::size_t last = std::max(first + 1, rank(0.5 + kBudgetBand));
  outcome.add("budget.client_p50_ms", "ms", client_p50);
  outcome.add("budget.client_p99_ms", "ms",
              grouped_quantile(client, 0.99, kTailGroup));
  double accounted = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    double sum = 0.0;
    for (std::size_t q = first; q < last && q < queries.size(); ++q)
      sum += queries[q].layer[l];
    const double value = sum / static_cast<double>(last - first);
    outcome.add(names[l], "ms", value);
    accounted += value;
    if (!(value >= 0.0))
      outcome.fail(std::string(names[l]) + " is negative: " +
                   std::to_string(value));
  }
  outcome.add("budget.unaccounted_ms", "ms", client_p50 - accounted);
}

void run_traced(const Args& args, const Inputs& inputs,
                const std::string& index_path, Reference& reference,
                Outcome& outcome) {
  const Workload& w = inputs.workload();
  const double half = args.seconds / 2.0;
  SpanLog log;
  SpanLog::Track& track = log.track();

  std::vector<SetupTimes> times;
  ColdStart live = cold_starts(index_path, inputs, reference, outcome,
                               kColdStartsBefore, times, &track);
  const auto calibrated = std::move(live.calibrated);
  const auto& registry = calibrated->registry;

  // The read window untraced, on the freshly cold-started stack with the
  // library's default tracing, then traced on a freshly loaded one whose
  // server records every query's span while the benchmark records its own.
  // The two differ only in that tracing, so the change in the client p50
  // is its overhead.
  warm_up_wire(live.stack->port(), inputs, reference, outcome);
  const Window untraced =
      run_window(live.stack->port(), inputs, half, nullptr);
  live.stack.reset();
  Window traced;
  std::vector<tdam::obs::SpanRecord> server_spans;
  {
    tdam::obs::TraceConfig full;
    full.mode = tdam::obs::TraceMode::kFull;
    full.capacity = kFullTraceCapacity;
    Stack stack(registry, index_path, /*wire=*/true, full);
    warm_up_wire(stack.port(), inputs, reference, outcome);
    stack.server().recorder().clear();
    traced = run_window(stack.port(), inputs, half, &log);
    server_spans = stack.server().recorder().snapshot();
  }
  const ReadTally plain = tally_reads(untraced.reads, reference, outcome);
  const ReadTally spanned = tally_reads(traced.reads, reference, outcome);
  tally_writes(untraced.writes, outcome);
  tally_writes(traced.writes, outcome);
  const double p50_plain = quantile(plain.latency_ms, 0.5);
  const double p50_traced = quantile(spanned.latency_ms, 0.5);

  // The same schedule in-process, then the layers on that index.
  Stack inproc(registry, index_path, /*wire=*/false);
  tally_reads(replay_as_reads(run_replay(inproc.server(), inputs,
                                         kWarmupSeconds, false, log)),
              reference, outcome);
  inproc.server().metrics().reset();
  const ReplayRun replay = run_replay(inproc.server(), inputs, half, true, log);
  const double batch_size_mean =
      inproc.server().metrics().snapshot().batch_sizes.mean();
  tally_reads(replay_as_reads(replay), reference, outcome);
  const int query_tile = inproc.index().query_tile();
  const ScanLayers scan =
      measure_scan(*inproc.index().pin(), inputs, query_tile, track);
  const EngineLayer engine =
      measure_engine(inproc.index(), inputs, reference, track);
  outcome.attempted += 32;
  outcome.failed += engine.wrong;
  if (engine.wrong > 0) outcome.fail("engine batch answers are wrong");
  if (!engine.modeled_repeat)
    outcome.fail("modeled cost differs between 1 and 2 engine threads");
  const double codec_us = measure_codec_us(inputs, track);
  const IndexLayer index = measure_index(registry, index_path, inputs, track);

  std::vector<double> ready_ms, queue_ms, batch_ms;
  for (const auto& r : replay.reads) {
    if (r.status != tdam::runtime::QueryStatus::kOk || !r.in_window) continue;
    ready_ms.push_back(r.ready_ms);
    queue_ms.push_back(r.queue_wait_ms);
    batch_ms.push_back(r.batch_wait_ms);
  }

  outcome.add("am.calibrate_s", "s",
              median(field_of(times, &SetupTimes::calibrate_s)));
  outcome.add("index.load_ms", "ms",
              median(field_of(times, &SetupTimes::load_s)) * 1e3);
  outcome.add("kernels.scan_ns_per_row", "ns", scan.kernel_ns_per_row);
  outcome.add("kernels.gbytes_per_s", "GB/s", scan.kernel_gbytes_per_s);
  outcome.add("core.topk_us_per_query", "us", scan.topk_us_per_query);
  outcome.add("core.select_ratio", "ratio", scan.select_ratio);
  outcome.add("engine.batch_ms", "ms", engine.batch_ms);
  outcome.add("engine.scan_ms_p50", "ms", engine.scan_ms_p50);
  outcome.add("engine.merge_us_p50", "us", engine.merge_us_p50);
  outcome.add("engine.thread_scaling", "ratio", engine.thread_scaling);
  outcome.add("engine.modeled_passes_sum", "count", engine.modeled_passes_sum);
  outcome.add("server.submit_ready_ms_p50", "ms", quantile(ready_ms, 0.50));
  outcome.add("server.submit_ready_ms_p99", "ms", quantile(ready_ms, 0.99));
  outcome.add("server.queue_wait_ms_p50", "ms", quantile(queue_ms, 0.5));
  outcome.add("server.batch_wait_ms_p50", "ms", quantile(batch_ms, 0.5));
  outcome.add("server.batch_size_mean", "count", batch_size_mean);
  outcome.add("net.overhead_ms_p50", "ms",
              p50_traced - quantile(ready_ms, 0.5));
  outcome.add("net.codec_us_per_query", "us", codec_us);
  outcome.add("index.store_us_p50", "us", index.store_us_p50);
  outcome.add("index.store_us_p99", "us", index.store_us_p99);
  outcome.add("index.compact_ms", "ms", index.compact_ms);
  outcome.add("index.segments", "count", index.segments);
  outcome.add("index.delta_rows", "count", index.delta_rows);
  outcome.add("index.pin_ns", "ns", index.pin_ns);
  add_budget(traced.reads, server_spans, scan, index, query_tile, outcome);
  outcome.add("bench.trace_overhead_frac", "ratio",
              (p50_traced - p50_plain) / p50_plain);
  outcome.add("bench.sender_late_ms_p99", "ms",
              quantile(traced.reads.late_ms, 0.99));

  char modeled[200];
  std::snprintf(modeled, sizeof modeled,
                "modeled (32-query engine batch): passes %.17g, latency %.17g "
                "s, energy %.17g J, digest %llu",
                engine.modeled_passes_sum, engine.modeled_latency_sum_s,
                engine.modeled_energy_sum_j,
                static_cast<unsigned long long>(engine.modeled_digest));
  outcome.notes.push_back(modeled);
  outcome.notes.push_back(lateness_line("traced reads", traced.reads.late_ms));
  outcome.notes.push_back("spans recorded: " + std::to_string(log.size()));
  const std::string spans_path =
      args.out_dir + "/spans-" + std::string(w.name) + ".json";
  if (!log.write_json(spans_path))
    throw std::runtime_error("cannot write " + spans_path);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const auto& m = o.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  std::filesystem::create_directories(args.out_dir);
  const std::string host = host_record();
  std::printf("servebench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("host: %s\n", host.c_str());

  // Inputs, the index file and the reference answers come first, outside
  // every timed window.
  const Inputs inputs(w, args.seed);
  const std::string index_path =
      args.out_dir + "/index-" + std::string(w.name) + ".tdam";
  inputs.write_index_file(index_path);
  Reference reference(inputs);

  Outcome outcome;
  if (args.trace == 0)
    run_untraced(args, inputs, index_path, reference, outcome);
  else
    run_traced(args, inputs, index_path, reference, outcome);
  std::filesystem::remove(index_path);

  for (const auto& note : outcome.notes)
    if (!note.empty()) std::printf("%s\n", note.c_str());
  for (const auto& m : outcome.metrics)
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("operations: attempted %ld, failed %ld\n", outcome.attempted,
              outcome.failed);

  const std::string json = result_json(outcome);
  const std::string result_path = args.out_dir + "/result-" +
                                  std::string(w.name) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  std::ofstream file(result_path);
  file << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << json_number(args.seconds)
       << ", \"trace\": " << args.trace << ", \"host\": \"" << escaped(host)
       << "\", \"notes\": [";
  for (std::size_t i = 0; i < outcome.notes.size(); ++i)
    file << (i > 0 ? ", " : "") << "\"" << escaped(outcome.notes[i]) << "\"";
  file << "], \"result\": " << json << "}\n";
  if (!file) throw std::runtime_error("cannot write " + result_path);

  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
