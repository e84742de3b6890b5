#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "net/client.h"

namespace servebench {
namespace {

using tdam::net::AmClient;
using tdam::net::MsgType;
using tdam::net::WireCode;

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(t))));
}

std::int64_t period_ns(double per_second) {
  return static_cast<std::int64_t>(std::llround(1e9 / per_second));
}

int request_count(double per_second, double seconds) {
  return std::max(1, static_cast<int>(std::lround(per_second * seconds)));
}

void fill_reply(ReadRecord& r, const AmClient::Reply& reply) {
  r.answered = true;
  r.trace_id = reply.trace_id;
  if (reply.type == MsgType::kQueryReply) {
    r.code = reply.query.code;
    r.generation = reply.query.generation;
    r.entries = reply.query.entries;
  } else {
    r.code = reply.type == MsgType::kError ? reply.error.code
                                           : WireCode::kInternal;
  }
}

// Keeps what the traced run reports of one answered query and, with a
// track, records its spans: the submit call and, from the server's own
// stamps, its queueing, the engine call and the scan inside it.
ReplayRecord record_served(int pool, tdam::runtime::ServedResult served,
                           std::int64_t from_ns, std::int64_t ready_ns,
                           SpanLog::Track* track, std::uint64_t request) {
  ReplayRecord r;
  r.pool = pool;
  r.status = served.status;
  r.generation = served.generation;
  r.entries = std::move(served.result.entries);
  r.ready_ms = static_cast<double>(ready_ns - from_ns) * 1e-6;
  r.queue_wait_ms = served.stages.queue_wait * 1e3;
  r.batch_wait_ms = served.stages.batch_wait * 1e3;
  if (track == nullptr) return r;
  const auto root =
      track->add("runtime.server.submit", from_ns, ready_ns, 0, request);
  const auto& span = served.span;
  if (span.enqueue_ns < 0 || span.dispatch_ns < 0 ||
      span.fulfill_ns < span.dispatch_ns)
    return r;
  const auto dispatch = span.enqueue_ns + span.dispatch_ns;
  track->add("runtime.server.queued", span.enqueue_ns, dispatch, root,
             request);
  const auto engine =
      track->add("runtime.engine.submit_batch", dispatch,
                 span.enqueue_ns + span.fulfill_ns, root, request);
  // The engine reports scan as a duration; it is placed at dispatch.
  track->add("core.scan", dispatch,
             dispatch + static_cast<std::int64_t>(
                            served.result.scan_seconds * 1e9),
             engine, request);
  return r;
}

// One closed-loop wire connection.
void closed_connection(int port, const Inputs& inputs, int outstanding,
                       int first_pool, std::int64_t start_ns,
                       std::int64_t end_ns, ReadRun& out,
                       SpanLog::Track* track) {
  AmClient client("127.0.0.1", port);
  const int k = inputs.workload().k;
  struct Pending {
    int pool;
    std::int64_t send_start, send_end;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  int next_pool = first_pool;
  auto send = [&] {
    const int pool = next_pool++ % kPool;
    const std::int64_t t0 = now_ns();
    const auto id = client.send_query(inputs.query_wire(pool),
                                      static_cast<std::uint32_t>(k));
    pending.emplace(id, Pending{pool, t0, now_ns()});
  };
  sleep_until_ns(start_ns);
  for (int i = 0; i < outstanding; ++i) send();
  long in_flight = outstanding;
  std::int64_t last_in_window = start_ns;
  AmClient::Reply reply;
  while (in_flight > 0) {
    if (!client.recv(reply))
      throw std::runtime_error("closed loop: server closed the connection");
    const std::int64_t t = now_ns();
    --in_flight;
    const auto it = pending.find(reply.request_id);
    if (it == pending.end()) {
      ++out.unmatched;
    } else {
      ReadRecord r;
      r.pool = it->second.pool;
      r.in_window = t <= end_ns;
      if (r.in_window) last_in_window = t;
      r.reply_ns = t;
      r.latency_ms = static_cast<double>(t - it->second.send_start) * 1e-6;
      r.send_ms =
          static_cast<double>(it->second.send_end - it->second.send_start) *
          1e-6;
      fill_reply(r, reply);
      if (track != nullptr) {
        const auto request = static_cast<std::uint64_t>(out.reads.size() + 1);
        const auto root = track->add("client.query", it->second.send_start, t,
                                     0, request);
        track->add("net.client.send_query", it->second.send_start,
                   it->second.send_end, root, request);
      }
      out.reads.push_back(std::move(r));
      pending.erase(it);
    }
    if (t < end_ns) {
      send();
      ++in_flight;
    }
  }
  out.elapsed_s = static_cast<double>(last_in_window - start_ns) * 1e-9;
}

}  // namespace

ReadRun wire_open_loop(int port, const Inputs& inputs, double qps,
                       double seconds, std::int64_t start_ns,
                       SpanLog::Track* track) {
  const int n = request_count(qps, seconds);
  const std::int64_t period = period_ns(qps);
  const int k = inputs.workload().k;
  AmClient client("127.0.0.1", port);
  struct Slot {
    std::uint64_t id = 0;
    std::int64_t send_start = 0, send_end = 0;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  std::atomic<int> sent{0};
  ReadRun run;
  run.start_ns = start_ns;
  run.reads.resize(static_cast<std::size_t>(n));

  Worker sender([&] {
    try {
      for (int i = 0; i < n; ++i) {
        sleep_until_ns(start_ns + i * period);
        Slot& s = slots[static_cast<std::size_t>(i)];
        s.send_start = now_ns();
        s.id = client.send_query(inputs.query_wire(i % kPool),
                                 static_cast<std::uint32_t>(k));
        s.send_end = now_ns();
        sent.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      client.shutdown_write();  // unblocks the receiver with EOF
      throw;
    }
  });

  std::int64_t last = start_ns;
  AmClient::Reply reply;
  for (int got = 0; got < n; ++got) {
    if (!client.recv(reply)) break;
    const std::int64_t t = now_ns();
    last = t;
    // The reply can overtake the sender's bookkeeping by a few
    // instructions; wait for the slot it answers to be published.
    while (sent.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();
    const std::uint64_t idx = reply.request_id - slots[0].id;
    if (idx >= static_cast<std::uint64_t>(n)) {
      ++run.unmatched;
      continue;
    }
    const int i = static_cast<int>(idx);
    while (sent.load(std::memory_order_acquire) <= i)
      std::this_thread::yield();
    const std::int64_t due = start_ns + i * period;
    ReadRecord& r = run.reads[idx];
    r.pool = i % kPool;
    r.latency_ms = static_cast<double>(t - due) * 1e-6;
    r.reply_ns = t;
    r.send_ms =
        static_cast<double>(slots[idx].send_end - slots[idx].send_start) * 1e-6;
    fill_reply(r, reply);
    if (track != nullptr) {
      const auto request = static_cast<std::uint64_t>(i + 1);
      const auto root = track->add("client.query", due, t, 0, request);
      track->add("net.client.send_query", slots[idx].send_start,
                 slots[idx].send_end, root, request);
    }
  }
  sender.join_rethrow();
  run.elapsed_s = static_cast<double>(last - start_ns) * 1e-9;
  for (int i = 0; i < n; ++i)
    run.late_ms.push_back(
        static_cast<double>(slots[static_cast<std::size_t>(i)].send_start -
                            (start_ns + i * period)) *
        1e-6);
  return run;
}

ReadRun wire_closed_loop(int port, const Inputs& inputs, int connections,
                         int outstanding, double seconds,
                         std::int64_t start_ns, SpanLog* log) {
  const auto end_ns =
      start_ns + static_cast<std::int64_t>(std::llround(seconds * 1e9));
  std::vector<ReadRun> runs(static_cast<std::size_t>(connections));
  std::vector<SpanLog::Track*> tracks;
  for (int c = 0; c < connections; ++c)
    tracks.push_back(log != nullptr ? &log->track() : nullptr);
  // Connections start at different pool offsets so they do not send the
  // same query at the same time.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int c = 1; c < connections; ++c)
    workers.push_back(std::make_unique<Worker>([&, c] {
      closed_connection(port, inputs, outstanding, c * kPool / connections,
                        start_ns, end_ns, runs[static_cast<std::size_t>(c)],
                        tracks[static_cast<std::size_t>(c)]);
    }));
  closed_connection(port, inputs, outstanding, 0, start_ns, end_ns, runs[0],
                    tracks[0]);
  for (auto& w : workers) w->join_rethrow();
  ReadRun out;
  out.start_ns = start_ns;
  for (auto& r : runs) {
    out.elapsed_s = std::max(out.elapsed_s, r.elapsed_s);
    out.unmatched += r.unmatched;
    for (auto& rec : r.reads) out.reads.push_back(std::move(rec));
  }
  return out;
}

WriteRun wire_writer(int port, const Inputs& inputs, double seconds,
                     int frames, std::int64_t start_ns,
                     SpanLog::Track* track) {
  AmClient client("127.0.0.1", port);
  const auto end_ns =
      seconds > 0.0
          ? start_ns + static_cast<std::int64_t>(std::llround(seconds * 1e9))
          : std::numeric_limits<std::int64_t>::max();
  WriteRun run;
  run.start_ns = start_ns;
  std::int64_t last = start_ns;
  sleep_until_ns(start_ns);
  for (int j = 0; last < end_ns && (frames <= 0 || j < frames); ++j) {
    const auto digits = inputs.write_frame(j * kWriteBatch, kWriteBatch);
    const std::int64_t t0 = now_ns();
    const auto reply = client.store_batch(digits, kStages);
    const std::int64_t t1 = now_ns();
    last = t1;
    ++run.frames;
    run.latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (track != nullptr)
      track->add("client.store_batch", t0, t1, 0,
                 static_cast<std::uint64_t>(j + 1));
    const bool ok =
        reply.type == MsgType::kStoreBatchReply &&
        reply.store_batch.rows == static_cast<std::uint32_t>(kWriteBatch) &&
        reply.store_batch.first_row ==
            inputs.base_rows() + j * kWriteBatch;
    if (ok)
      run.ack_ns.push_back(t1);
    else
      ++run.failed;
  }
  return run;
}

ReplayRun replay_open_loop(tdam::runtime::AmServer& server,
                           const Inputs& inputs, double qps, double seconds,
                           std::int64_t start_ns, SpanLog::Track* track) {
  const int n = request_count(qps, seconds);
  const std::int64_t period = period_ns(qps);
  const int k = inputs.workload().k;
  std::vector<std::future<tdam::runtime::ServedResult>> futures(
      static_cast<std::size_t>(n));
  std::mutex mutex;
  std::condition_variable cv;
  int submitted = 0;  // guarded by mutex

  Worker submitter([&] {
    for (int i = 0; i < n; ++i) {
      sleep_until_ns(start_ns + i * period);
      auto f = server.submit(inputs.query_digits(i % kPool), k);
      {
        std::lock_guard<std::mutex> lock(mutex);
        futures[static_cast<std::size_t>(i)] = std::move(f);
        submitted = i + 1;
      }
      cv.notify_one();
    }
  });

  ReplayRun run;
  for (int i = 0; i < n; ++i) {
    std::future<tdam::runtime::ServedResult> f;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return submitted > i; });
      f = std::move(futures[static_cast<std::size_t>(i)]);
    }
    auto served = f.get();
    const std::int64_t t = now_ns();
    const std::int64_t due = start_ns + i * period;
    run.reads.push_back(record_served(i % kPool, std::move(served), due, t,
                                      track,
                                      static_cast<std::uint64_t>(i + 1)));
  }
  submitter.join_rethrow();
  return run;
}

ReplayRun replay_closed_loop(tdam::runtime::AmServer& server,
                             const Inputs& inputs, int clients,
                             int outstanding, double seconds,
                             std::int64_t start_ns, SpanLog* log) {
  const auto end_ns =
      start_ns + static_cast<std::int64_t>(std::llround(seconds * 1e9));
  const int k = inputs.workload().k;
  std::vector<ReplayRun> runs(static_cast<std::size_t>(clients));
  auto client = [&](int c, SpanLog::Track* track) {
    struct InFlight {
      int pool;
      std::int64_t submitted;
      std::future<tdam::runtime::ServedResult> future;
    };
    std::deque<InFlight> queue;
    int next_pool = c * kPool / clients;
    auto submit = [&] {
      const int pool = next_pool++ % kPool;
      const std::int64_t t0 = now_ns();
      queue.push_back({pool, t0, server.submit(inputs.query_digits(pool), k)});
    };
    auto& run = runs[static_cast<std::size_t>(c)];
    sleep_until_ns(start_ns);
    for (int i = 0; i < outstanding; ++i) submit();
    while (!queue.empty()) {
      auto head = std::move(queue.front());
      queue.pop_front();
      auto served = head.future.get();
      const std::int64_t t = now_ns();
      run.reads.push_back(record_served(head.pool, std::move(served),
                                        head.submitted, t, track,
                                        run.reads.size() + 1));
      run.reads.back().in_window = t <= end_ns;
      if (t < end_ns) submit();
    }
  };
  std::vector<SpanLog::Track*> tracks;
  for (int c = 0; c < clients; ++c)
    tracks.push_back(log != nullptr ? &log->track() : nullptr);
  std::vector<std::unique_ptr<Worker>> workers;
  for (int c = 1; c < clients; ++c)
    workers.push_back(std::make_unique<Worker>(
        [&, c] { client(c, tracks[static_cast<std::size_t>(c)]); }));
  client(0, tracks[0]);
  for (auto& w : workers) w->join_rethrow();
  ReplayRun out;
  for (auto& r : runs)
    for (auto& rec : r.reads) out.reads.push_back(std::move(rec));
  return out;
}

void replay_writer(tdam::runtime::AmServer& server, const Inputs& inputs,
                   double seconds, std::int64_t start_ns) {
  const auto end_ns =
      start_ns + static_cast<std::int64_t>(std::llround(seconds * 1e9));
  sleep_until_ns(start_ns);
  for (int j = 0; now_ns() < end_ns; ++j) {
    std::vector<std::vector<int>> rows;
    for (int r = 0; r < kWriteBatch; ++r)
      rows.push_back(unpack_digits(inputs.write_packed(j * kWriteBatch + r)));
    for (const auto& row : rows) server.store(row);
  }
}

}  // namespace servebench
