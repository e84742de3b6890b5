// Wire-level observability over loopback sockets: AmClient ↔ AmTcpServer ↔
// AmServer with tracing on.  The load-bearing assertions: a query served
// over TCP yields ONE span whose wire stages (io_recv → decode →
// submit_queue → … → encode → io_send) are non-negative,
// monotonically ordered, and bounded by the latency the client itself
// measured; the slow-query log captures by threshold and not by sampling
// stride; the v3 METRICS message and the embedded HTTP listener both hand
// back the same registry a file export would.  Runtime prefix: these suites
// run under the CI thread-sanitizer job's --gtest_filter='Runtime*'.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "am/calibration.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/protocol.h"
#include "net/tcp_server.h"
#include "obs/trace.h"
#include "runtime/backends.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "util/rng.h"

namespace tdam::net {
namespace {

constexpr int kStages = 24;
constexpr std::uint32_t kTopK = 5;

const am::CalibrationResult& calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(37);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

std::vector<std::uint16_t> random_wire_digits(Rng& rng, int stages,
                                              int levels) {
  std::vector<std::uint16_t> out(static_cast<std::size_t>(stages));
  for (auto& d : out)
    d = static_cast<std::uint16_t>(
        rng.uniform_below(static_cast<std::uint64_t>(levels)));
  return out;
}

// A populated index + traced AmServer + AmTcpServer on an ephemeral port.
struct TracedStack {
  std::unique_ptr<runtime::ShardedIndex> index;
  std::unique_ptr<runtime::AmServer> am;
  std::unique_ptr<AmTcpServer> tcp;

  explicit TracedStack(const std::string& backend, obs::TraceConfig trace,
                       int vectors = 64) {
    const auto registry =
        runtime::default_registry(calibration(), {.stages = kStages});
    index = std::make_unique<runtime::ShardedIndex>(
        registry,
        runtime::ShardedIndexOptions{.backend = backend, .shards = 2});
    Rng rng(11);
    for (int v = 0; v < vectors; ++v) {
      std::vector<int> digits(static_cast<std::size_t>(kStages));
      for (auto& d : digits)
        d = static_cast<int>(
            rng.uniform_below(static_cast<std::uint64_t>(index->levels())));
      index->store(digits);
    }
    am = std::make_unique<runtime::AmServer>(
        *index, runtime::ServerOptions{.engine = {.threads = 1},
                                       .trace = trace});
    tcp = std::make_unique<AmTcpServer>(*am,
                                        TcpServerOptions{.io_threads = 1});
  }

  AmClient connect() const { return AmClient("127.0.0.1", tcp->port()); }
};

// A wire span is recorded by the I/O thread *after* the reply bytes reach
// the kernel, so the client can observe the reply a beat before the record
// lands — poll instead of asserting immediately.
template <typename Fn>
bool wait_until(Fn&& done, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- wire-stage spans -----------------------------------------------------

TEST(RuntimeNetObs, WireStagesMonotoneAndBoundedByClientWallOnAllBackends) {
  const auto registry =
      runtime::default_registry(calibration(), {.stages = kStages});
  for (const auto& backend : registry.names()) {
    SCOPED_TRACE("backend=" + backend);
    TracedStack stack(backend, {.mode = obs::TraceMode::kFull});
    auto client = stack.connect();
    Rng rng(23);

    constexpr int kQueries = 8;
    std::map<std::uint64_t, std::int64_t> client_wall_ns;
    for (int q = 0; q < kQueries; ++q) {
      const auto digits =
          random_wire_digits(rng, kStages, stack.index->levels());
      const auto t0 = std::chrono::steady_clock::now();
      const auto reply = client.query(digits, kTopK);
      const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      ASSERT_EQ(reply.type, MsgType::kQueryReply);
      ASSERT_EQ(reply.query.code, WireCode::kOk);
      ASSERT_GT(reply.trace_id, 0u);
      client_wall_ns[reply.trace_id] = wall;
    }

    ASSERT_TRUE(wait_until([&] {
      return stack.am->recorder().recorded() >=
             static_cast<std::uint64_t>(kQueries);
    })) << "spans never reached the recorder";

    int matched = 0;
    for (const auto& span : stack.am->recorder().snapshot()) {
      const auto it = client_wall_ns.find(span.trace_id);
      if (it == client_wall_ns.end()) continue;
      ++matched;
      EXPECT_TRUE(span.traced());
      EXPECT_TRUE(span.wire());
      EXPECT_EQ(span.status, static_cast<int>(runtime::QueryStatus::kOk));
      EXPECT_EQ(span.k, static_cast<std::int32_t>(kTopK));
      EXPECT_GT(span.generation, 0u);

      // Every stamped stage is a non-negative offset from the same enqueue
      // base, in the documented order across all three server thread hops.
      const std::int64_t chain[] = {
          span.io_recv_ns,  span.decode_ns, span.submit_queue_ns,
          span.admit_ns,    span.batch_form_ns, span.dispatch_ns,
          span.fulfill_ns,  span.encode_ns,
          span.io_send_ns};
      EXPECT_GE(chain[0], 0);
      for (std::size_t i = 1; i < std::size(chain); ++i)
        EXPECT_LE(chain[i - 1], chain[i])
            << "stage " << i << " precedes stage " << i - 1;
      EXPECT_GE(span.scan_ns, 0);   // durations, not offsets
      EXPECT_GE(span.merge_ns, 0);

      // The server-side window sits inside the client's own send→recv
      // measurement.  encode is stamped BEFORE the reply bytes are
      // written, so it strictly precedes the client's clock stop; io_send
      // is stamped after the write syscall returns, which can land a few
      // scheduler ticks after the client already read the bytes — bound it
      // with a slack that absorbs that noise (generous for sanitizers).
      EXPECT_EQ(span.wall_ns(), span.io_send_ns);
      EXPECT_LE(span.encode_ns, it->second)
          << "server claims more wall time than the client observed";
      constexpr std::int64_t kStampSlackNs = 50'000'000;
      EXPECT_LE(span.io_send_ns, it->second + kStampSlackNs);
    }
    EXPECT_EQ(matched, kQueries);
  }
}

TEST(RuntimeNetObs, InProcessSubmitStillRecordsWithoutWireStages) {
  TracedStack stack("exact", {.mode = obs::TraceMode::kFull});
  auto future = stack.am->submit(std::vector<int>(kStages, 1),
                                 static_cast<int>(kTopK));
  const auto result = future.get();
  EXPECT_EQ(result.status, runtime::QueryStatus::kOk);
  ASSERT_TRUE(
      wait_until([&] { return stack.am->recorder().recorded() >= 1; }));
  const auto spans = stack.am->recorder().snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_TRUE(spans.back().traced());
  EXPECT_FALSE(spans.back().wire());  // no TCP hop — no wire stamps
  EXPECT_EQ(spans.back().io_recv_ns, -1);
  EXPECT_EQ(spans.back().io_send_ns, -1);
}

// --- slow-query log -------------------------------------------------------

TEST(RuntimeNetObs, SlowLogThresholdZeroCapturesEveryWireQuery) {
  // A sampling stride far above the query count: the flight recorder's
  // ring stays (nearly) empty while the slow log — which has no stride —
  // must capture every single query.
  TracedStack stack("exact", {.mode = obs::TraceMode::kSampled,
                              .sample_every = 1 << 20,
                              .slow_threshold_ns = 0});
  auto client = stack.connect();
  Rng rng(29);
  constexpr int kQueries = 16;
  for (int q = 0; q < kQueries; ++q) {
    const auto reply = client.query(
        random_wire_digits(rng, kStages, stack.index->levels()), kTopK);
    ASSERT_EQ(reply.query.code, WireCode::kOk);
  }
  ASSERT_TRUE(wait_until([&] {
    return stack.am->slow_log().captured() >=
           static_cast<std::uint64_t>(kQueries);
  })) << "threshold-0 slow log missed queries";
  EXPECT_EQ(stack.am->slow_log().captured(),
            static_cast<std::uint64_t>(kQueries));
  for (const auto& span : stack.am->slow_log().snapshot()) {
    EXPECT_TRUE(span.wire());
    EXPECT_GE(span.wall_ns(), 0);
  }
  // Context describes the serving stack the spans were measured against.
  const auto ctx = stack.am->slow_log().context();
  EXPECT_EQ(ctx.backend, "exact");
  EXPECT_FALSE(ctx.metric.empty());
  EXPECT_EQ(ctx.shards, 2);
}

TEST(RuntimeNetObs, SlowLogHugeThresholdCapturesNothing) {
  TracedStack stack("exact",
                    {.mode = obs::TraceMode::kFull,
                     .slow_threshold_ns = std::int64_t{1} << 60});
  auto client = stack.connect();
  Rng rng(31);
  constexpr int kQueries = 8;
  for (int q = 0; q < kQueries; ++q) {
    const auto reply = client.query(
        random_wire_digits(rng, kStages, stack.index->levels()), kTopK);
    ASSERT_EQ(reply.query.code, WireCode::kOk);
  }
  // The recorder (kFull) still gets every span — proof traffic completed
  // and was recorded — while the slow ring stays empty.
  ASSERT_TRUE(wait_until([&] {
    return stack.am->recorder().recorded() >=
           static_cast<std::uint64_t>(kQueries);
  }));
  EXPECT_TRUE(stack.am->slow_log().enabled());
  EXPECT_EQ(stack.am->slow_log().captured(), 0u);
  EXPECT_TRUE(stack.am->slow_log().snapshot().empty());
}

// --- METRICS wire message -------------------------------------------------

TEST(RuntimeNetObs, MetricsMessageServesAllThreeFormats) {
  TracedStack stack("exact", {.mode = obs::TraceMode::kFull,
                              .slow_threshold_ns = 0});
  auto client = stack.connect();
  Rng rng(41);
  const auto reply = client.query(
      random_wire_digits(rng, kStages, stack.index->levels()), kTopK);
  ASSERT_EQ(reply.query.code, WireCode::kOk);

  const auto prom = client.metrics(MetricsFormat::kPrometheus);
  EXPECT_EQ(prom.format, MetricsFormat::kPrometheus);
  EXPECT_NE(prom.text.find("# TYPE tdam_serving_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.text.find("tdam_net_frames_in_total"), std::string::npos);

  const auto json = client.metrics(MetricsFormat::kJson);
  EXPECT_NE(json.text.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.text.find("\"kind\":\"exponential\""), std::string::npos);
  EXPECT_NE(json.text.find("\"slow\":{"), std::string::npos);

  const auto traces = client.metrics(MetricsFormat::kTraces);
  EXPECT_NE(traces.text.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(traces.text.find("\"spans\":["), std::string::npos);
}

TEST(RuntimeNetObs, MetricsMessageRequiresProtocolV3) {
  // METRICS is a v3 message and v3 is the one version spoken: a METRICS
  // frame stamped v2 is refused with kUnsupportedVersion, and a fresh
  // connection still gets its export.
  TracedStack stack("exact", {.mode = obs::TraceMode::kOff});
  auto old = stack.connect();
  auto frame = encode_metrics(1, MetricsRequest{});
  frame[2] = 2;
  old.send_raw(frame);
  AmClient::Reply reply;
  ASSERT_TRUE(old.recv(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kUnsupportedVersion);
  auto client = stack.connect();
  EXPECT_NE(client.metrics().text.find("# TYPE tdam_serving_queries_total"),
            std::string::npos);
}

// --- embedded HTTP listener -----------------------------------------------

// Minimal blocking HTTP/1.0-style GET: send the request, read to EOF
// (the listener always answers Connection: close).
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(RuntimeNetObs, HttpListenerServesMetricsAndTraces) {
  TracedStack stack("exact", {.mode = obs::TraceMode::kFull,
                              .slow_threshold_ns = 0});
  MetricsHttpServer http(*stack.am, {.port = 0});
  ASSERT_GT(http.port(), 0);

  auto client = stack.connect();
  Rng rng(47);
  const auto reply = client.query(
      random_wire_digits(rng, kStages, stack.index->levels()), kTopK);
  ASSERT_EQ(reply.query.code, WireCode::kOk);
  ASSERT_TRUE(
      wait_until([&] { return stack.am->recorder().recorded() >= 1; }));

  const auto prom = http_get(http.port(), "/metrics");
  EXPECT_NE(prom.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.find("tdam_serving_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("tdam_serving_shard_scan_seconds"), std::string::npos);

  const auto json = http_get(http.port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);

  const auto traces = http_get(http.port(), "/traces");
  EXPECT_NE(traces.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(traces.find("\"spans\":[{\"trace_id\":"), std::string::npos);
  EXPECT_NE(traces.find("\"io_send_ns\":"), std::string::npos);
  EXPECT_NE(traces.find("\"slow\":{"), std::string::npos);

  const auto missing = http_get(http.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_GE(http.requests_served(), 4u);

  http.stop();
}

}  // namespace
}  // namespace tdam::net
