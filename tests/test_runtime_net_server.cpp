// Layer-8 loopback integration: AmClient ↔ AmTcpServer ↔ AmServer over real
// sockets.  The load-bearing assertions: over-the-wire top-k is bit-identical
// to direct SearchEngine::submit_batch for every registered backend; degraded
// admission/deadline outcomes arrive as QUERY_REPLY wire codes (never
// disconnects); malformed and oversized frames are answered with ERROR
// replies on a surviving connection; graceful shutdown answers every
// in-flight pipelined query before the socket closes.
#include "net/tcp_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "am/calibration.h"
#include "core/exact_backend.h"
#include "core/registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "runtime/backends.h"
#include "runtime/engine.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "util/rng.h"

namespace tdam::net {
namespace {

constexpr int kStages = 24;

const am::CalibrationResult& calibration() {
  static const am::CalibrationResult cal = [] {
    Rng rng(37);
    return am::calibrate_chain(am::ChainConfig{}, rng);
  }();
  return cal;
}

std::vector<int> random_digits(Rng& rng, int stages, int levels) {
  std::vector<int> out(static_cast<std::size_t>(stages));
  for (auto& d : out)
    d = static_cast<int>(
        rng.uniform_below(static_cast<std::uint64_t>(levels)));
  return out;
}

std::vector<std::uint16_t> to_wire(const std::vector<int>& digits) {
  std::vector<std::uint16_t> out;
  out.reserve(digits.size());
  for (const int d : digits) out.push_back(static_cast<std::uint16_t>(d));
  return out;
}

// A populated index + AmServer + AmTcpServer on an ephemeral loopback port.
struct Stack {
  std::unique_ptr<runtime::ShardedIndex> index;
  std::unique_ptr<runtime::AmServer> am;
  std::unique_ptr<AmTcpServer> tcp;

  explicit Stack(const std::string& backend, int vectors = 64,
                 runtime::SchedulerOptions sched = {},
                 TcpServerOptions net = {}) {
    const auto registry =
        runtime::default_registry(calibration(), {.stages = kStages});
    index = std::make_unique<runtime::ShardedIndex>(
        registry,
        runtime::ShardedIndexOptions{.backend = backend, .shards = 2});
    Rng rng(11);
    for (int v = 0; v < vectors; ++v)
      index->store(random_digits(rng, kStages, index->levels()));
    am = std::make_unique<runtime::AmServer>(
        *index, runtime::ServerOptions{.engine = {.threads = 1},
                                       .scheduler = sched});
    tcp = std::make_unique<AmTcpServer>(*am, net);
  }

  AmClient connect() const { return AmClient("127.0.0.1", tcp->port()); }
};

double counter_value(const runtime::AmServer& am, const std::string& name) {
  for (const auto* c : am.metrics().registry().counters())
    if (c->name() == name) return c->value();
  return 0.0;
}

// Exact backend whose search hook throws for any query that starts with
// kFailDigit: an engine failure on demand, which the wire must report as
// ERROR/kInternal.
class FailingBackend final : public core::SimilarityBackend {
 public:
  static constexpr int kFailDigit = 3;
  static constexpr int kLevels = 4;

  FailingBackend(int stages, int levels) : inner_(stages, levels) {}

  std::string name() const override { return "failing"; }
  core::DigitMetric metric() const override { return inner_.metric(); }
  int stages() const override { return inner_.stages(); }
  int levels() const override { return inner_.levels(); }
  int rows() const override { return inner_.rows(); }
  int store(std::span<const int> digits) override {
    return inner_.store(digits);
  }
  void clear() override { inner_.clear(); }
  std::vector<int> row_digits(int row) const override {
    return inner_.row_digits(row);
  }
  std::vector<core::BackendTopK> search_topk_packed_batch(
      const core::DigitMatrix& queries, int first, int count,
      int k) const override {
    for (int r = first; r < first + count; ++r)
      if (queries.unpack_row(r).front() == kFailDigit)
        throw std::runtime_error("injected search failure");
    return inner_.search_topk_packed_batch(queries, first, count, k);
  }
  int query_tile() const override { return inner_.query_tile(); }
  void adopt_matrix(core::DigitMatrix matrix) override {
    inner_.adopt_matrix(std::move(matrix));
  }
  const core::DigitMatrix* packed_view() const override {
    return inner_.packed_view();
  }
  core::QueryCost query_cost(double mismatch_fraction) const override {
    return inner_.query_cost(mismatch_fraction);
  }
  std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }

 private:
  core::ExactL1Backend inner_;
};

// --- parity with the in-process engine -----------------------------------

TEST(RuntimeNetServer, TopKBitIdenticalToSearchEngineOnAllBackends) {
  const auto registry =
      runtime::default_registry(calibration(), {.stages = kStages});
  for (const auto& backend : registry.names()) {
    SCOPED_TRACE("backend=" + backend);
    // Ground truth first: same index, direct SearchEngine, before the
    // serving stack takes ownership.
    runtime::ShardedIndex index(
        registry, runtime::ShardedIndexOptions{.backend = backend,
                                               .shards = 2});
    Rng rng(11);
    for (int v = 0; v < 64; ++v)
      index.store(random_digits(rng, kStages, index.levels()));
    Rng qrng(23);
    std::vector<std::vector<int>> queries;
    for (int q = 0; q < 12; ++q)
      queries.push_back(random_digits(qrng, kStages, index.levels()));
    std::vector<std::vector<core::TopKEntry>> expected;
    {
      runtime::SearchEngine engine(index, {.threads = 1});
      for (const auto& r : engine.submit_batch(queries, 5))
        expected.push_back(r.entries);
    }

    runtime::AmServer am(index, {.engine = {.threads = 1}});
    AmTcpServer tcp(am);
    AmClient client("127.0.0.1", tcp.port());
    const auto hello = client.hello();
    EXPECT_EQ(hello.stages, static_cast<std::uint32_t>(kStages));
    EXPECT_EQ(hello.backend, backend);

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto reply = client.query(to_wire(queries[q]), 5);
      ASSERT_EQ(reply.type, MsgType::kQueryReply);
      ASSERT_EQ(reply.query.code, WireCode::kOk);
      EXPECT_NE(reply.trace_id, 0u);  // trace id rides the reply header
      ASSERT_EQ(reply.query.entries.size(), expected[q].size());
      for (std::size_t i = 0; i < expected[q].size(); ++i) {
        EXPECT_EQ(reply.query.entries[i].row, expected[q][i].row)
            << "query " << q << " entry " << i;
        EXPECT_EQ(reply.query.entries[i].score, expected[q][i].score)
            << "query " << q << " entry " << i;
      }
    }
  }
}

TEST(RuntimeNetServer, RetiredVersionHeadersGetUnsupportedVersion) {
  // Only v3 is spoken.  A hand-built v1 or v2 QUERY is refused with a named
  // kUnsupportedVersion, never read with the v3 payload schema, and the
  // server hangs up: past an unknown header it cannot trust the framing.
  Stack stack("behavioral", 16);
  Rng rng(23);
  for (const int version : {1, 2}) {
    auto client = stack.connect();
    QueryRequest request;
    request.k = 3;
    request.digits =
        to_wire(random_digits(rng, kStages, stack.index->levels()));
    auto frame = encode_query(9, request);
    frame[2] = static_cast<std::uint8_t>(version);
    client.send_raw(frame);
    AmClient::Reply reply;
    ASSERT_TRUE(client.recv(reply)) << "version " << version;
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(reply.error.code, WireCode::kUnsupportedVersion);
    EXPECT_FALSE(client.recv(reply));
  }
  // The server keeps answering v3 clients.
  auto client = stack.connect();
  const auto ok = client.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 3);
  EXPECT_EQ(ok.query.code, WireCode::kOk);
}

TEST(RuntimeNetServer, CosineRepliesCarryMetricIdAndFloatScores) {
  Stack stack("cosine", /*vectors=*/32);
  auto client = stack.connect();
  EXPECT_EQ(client.hello().backend, "cosine");
  Rng rng(29);
  const auto reply = client.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 5);
  ASSERT_EQ(reply.query.code, WireCode::kOk);
  EXPECT_EQ(reply.query.metric, core::DigitMetric::kCosine);
  ASSERT_EQ(reply.query.entries.size(), 5u);
  // Cosine scores arrive descending, in (0, 1] for non-degenerate vectors.
  for (std::size_t i = 0; i < reply.query.entries.size(); ++i) {
    EXPECT_GT(reply.query.entries[i].score, 0.0);
    EXPECT_LE(reply.query.entries[i].score, 1.0);
    if (i > 0)
      EXPECT_GE(reply.query.entries[i - 1].score,
                reply.query.entries[i].score);
  }
}

TEST(RuntimeNetServer, StoreQueryClearOverTheWire) {
  Stack stack("exact", /*vectors=*/8);
  auto client = stack.connect();
  const auto before = client.hello();

  // Store a known vector; it must become the exact-match top-1.
  std::vector<std::uint16_t> digits(kStages, 3);
  const auto stored = client.store(digits);
  ASSERT_EQ(stored.type, MsgType::kStoreReply);
  EXPECT_EQ(stored.store.row, 8);  // rows 0..7 pre-populated
  EXPECT_GT(stored.store.generation, before.generation);

  const auto reply = client.query(digits, 1);
  ASSERT_EQ(reply.query.code, WireCode::kOk);
  ASSERT_EQ(reply.query.entries.size(), 1u);
  EXPECT_EQ(reply.query.entries.front().row, 8);
  EXPECT_EQ(reply.query.entries.front().score, 0.0);

  const auto cleared = client.clear();
  ASSERT_EQ(cleared.type, MsgType::kClearReply);
  const auto stats = client.stats();
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_GE(stats.queries, 1u);
}

TEST(RuntimeNetServer, StoreBatchOverTheWire) {
  Stack stack("exact", /*vectors=*/8);
  auto client = stack.connect();
  const auto before = client.hello();

  // Four rows in one frame, each a constant pattern for exact-match probes.
  std::vector<std::uint16_t> digits;
  for (int r = 0; r < 4; ++r)
    for (int s = 0; s < kStages; ++s)
      digits.push_back(static_cast<std::uint16_t>(r));
  const auto stored = client.store_batch(digits, kStages);
  ASSERT_EQ(stored.type, MsgType::kStoreBatchReply);
  EXPECT_EQ(stored.store_batch.rows, 4u);
  EXPECT_EQ(stored.store_batch.first_row, 8);  // rows 0..7 pre-populated
  EXPECT_EQ(stored.store_batch.generation, before.generation + 4);

  for (int r = 0; r < 4; ++r) {
    const std::vector<std::uint16_t> probe(
        kStages, static_cast<std::uint16_t>(r));
    const auto reply = client.query(probe, 1);
    ASSERT_EQ(reply.query.code, WireCode::kOk);
    ASSERT_EQ(reply.query.entries.size(), 1u);
    EXPECT_EQ(reply.query.entries.front().row, 8 + r);
    EXPECT_EQ(reply.query.entries.front().score, 0.0);
  }

  const auto stats = client.stats();
  EXPECT_EQ(stats.rows, 12u);
  EXPECT_GE(stats.segments, 1u);
  EXPECT_EQ(stats.delta_rows, 12u);

  // An empty batch is a no-op that still gets its reply.
  const auto empty = client.store_batch({}, kStages);
  ASSERT_EQ(empty.type, MsgType::kStoreBatchReply);
  EXPECT_EQ(empty.store_batch.rows, 0u);
  EXPECT_EQ(empty.store_batch.first_row, -1);
}

TEST(RuntimeNetServer, StoreBatchWithBadDigitGetsErrorNamingTheRow) {
  Stack stack("exact", /*vectors=*/2);
  auto client = stack.connect();
  // Row 1 carries an out-of-range digit: the reply is an ERROR that names
  // the offending row, the rows before it are already stored, and the
  // connection survives.
  std::vector<std::uint16_t> digits(2 * kStages, 1);
  digits[kStages] = 999;
  const auto reply = client.store_batch(digits, kStages);
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kInvalidArgument);
  EXPECT_NE(reply.error.message.find("row 1"), std::string::npos);

  const auto stats = client.stats();
  EXPECT_EQ(stats.rows, 3u);  // 2 preloaded + the good row 0
  EXPECT_EQ(client.hello().stages, static_cast<std::uint32_t>(kStages));
}

// --- degraded statuses are wire codes, not disconnects -------------------

TEST(RuntimeNetServer, RejectedQueriesSurfaceAsWireCode) {
  // Capacity 1 with a slow flush: pipelining 20 queries through one
  // connection must bounce some at admission while the first ones serve.
  Stack stack("behavioral", 64,
              {.max_batch = 64, .max_delay = 0.1, .queue_capacity = 1,
               .policy = runtime::AdmissionPolicy::kReject});
  auto client = stack.connect();
  Rng rng(5);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i)
    ids.insert(client.send_query(
        to_wire(random_digits(rng, kStages, stack.index->levels())), 3));

  int ok = 0, rejected = 0;
  AmClient::Reply reply;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.recv(reply)) << "server disconnected on reply " << i;
    ASSERT_EQ(reply.type, MsgType::kQueryReply);
    ASSERT_EQ(ids.erase(reply.request_id), 1u);
    if (reply.query.code == WireCode::kOk) ++ok;
    else if (reply.query.code == WireCode::kRejected) ++rejected;
    else FAIL() << "unexpected code "
                << wire_code_name(reply.query.code);
  }
  EXPECT_TRUE(ids.empty());
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(ok + rejected, 20);
}

TEST(RuntimeNetServer, ShedQueriesSurfaceAsWireCode) {
  Stack stack("behavioral", 64,
              {.max_batch = 64, .max_delay = 0.1, .queue_capacity = 1,
               .policy = runtime::AdmissionPolicy::kShedOldest});
  auto client = stack.connect();
  Rng rng(5);
  for (int i = 0; i < 20; ++i)
    client.send_query(
        to_wire(random_digits(rng, kStages, stack.index->levels())), 3);

  int ok = 0, shed = 0;
  AmClient::Reply reply;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.recv(reply)) << "server disconnected on reply " << i;
    ASSERT_EQ(reply.type, MsgType::kQueryReply);
    if (reply.query.code == WireCode::kOk) ++ok;
    else if (reply.query.code == WireCode::kShed) ++shed;
    else FAIL() << "unexpected code "
                << wire_code_name(reply.query.code);
  }
  EXPECT_GE(ok, 1);   // the newest admitted query always serves
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, 20);
}

TEST(RuntimeNetServer, ExpiredDeadlinesSurfaceAsWireCode) {
  // 1 us deadline against a 20 ms batching delay: every query expires in
  // the queue and must come back kDeadlineExpired, connection intact.
  Stack stack("behavioral", 64, {.max_batch = 64, .max_delay = 0.02});
  auto client = stack.connect();
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const auto reply = client.query(
        to_wire(random_digits(rng, kStages, stack.index->levels())), 3,
        /*deadline_us=*/1);
    ASSERT_EQ(reply.type, MsgType::kQueryReply);
    EXPECT_EQ(reply.query.code, WireCode::kDeadlineExpired);
    EXPECT_TRUE(reply.query.entries.empty());
  }
  // The connection still answers a deadline-free query.
  const auto reply = client.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 3);
  EXPECT_EQ(reply.query.code, WireCode::kOk);
}

// --- protocol robustness --------------------------------------------------

TEST(RuntimeNetServer, OversizedFrameGetsErrorReplyAndConnectionSurvives) {
  Stack stack("behavioral", 16, {}, {.max_frame_bytes = 256});
  auto client = stack.connect();
  // 512 digits: 12 + 1024 payload bytes, over the 256-byte cap.
  client.send_query(std::vector<std::uint16_t>(512, 1), 1);
  AmClient::Reply reply;
  ASSERT_TRUE(client.recv(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kOversizedFrame);

  // Same connection, valid query: still serving.
  Rng rng(5);
  const auto ok = client.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 1);
  EXPECT_EQ(ok.query.code, WireCode::kOk);
}

TEST(RuntimeNetServer, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  Stack stack("behavioral", 16);
  auto client = stack.connect();
  // Valid header, garbage payload: digit count promises more than present.
  std::vector<std::uint8_t> bytes;
  FrameHeader header;
  header.type = MsgType::kQuery;
  header.payload_len = 12;
  header.request_id = 77;
  encode_header(header, bytes);
  WireWriter w(bytes);
  w.u32(1);    // k
  w.u32(0);    // deadline_us
  w.u32(100);  // claims 100 digits, provides none
  client.send_raw(bytes);
  AmClient::Reply reply;
  ASSERT_TRUE(client.recv(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kMalformedFrame);
  EXPECT_EQ(reply.request_id, 77u);

  Rng rng(5);
  const auto ok = client.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 1);
  EXPECT_EQ(ok.query.code, WireCode::kOk);
}

TEST(RuntimeNetServer, InvalidArgumentsGetErrorReply) {
  Stack stack("behavioral", 16);
  auto client = stack.connect();
  // Wrong digit count for the index geometry: AmServer::submit throws
  // std::invalid_argument, which must come back as a wire code.
  const auto reply = client.query(std::vector<std::uint16_t>(3, 1), 1);
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kInvalidArgument);
}

TEST(RuntimeNetServer, BadMagicGetsErrorReplyThenDisconnect) {
  Stack stack("behavioral", 16);
  auto client = stack.connect();
  client.send_raw({0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
  AmClient::Reply reply;
  ASSERT_TRUE(client.recv(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code, WireCode::kMalformedFrame);
  // The stream is unsynchronizable, so the server hangs up after replying.
  EXPECT_FALSE(client.recv(reply));
}

TEST(RuntimeNetServer, ProtocolErrorBudgetDisconnectsAbusiveConnection) {
  Stack stack("behavioral", 16, {}, {.max_protocol_errors = 3});
  auto client = stack.connect();
  for (int i = 0; i < 3; ++i)
    client.send_query(std::vector<std::uint16_t>(3, 1), 1);  // bad geometry
  AmClient::Reply reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.recv(reply));
    EXPECT_EQ(reply.error.code, WireCode::kInvalidArgument);
  }
  EXPECT_FALSE(client.recv(reply));  // budget exhausted: clean EOF
}

TEST(RuntimeNetServer, EngineFailureRepliesInternalAndKeepsServing) {
  constexpr int kLevels = FailingBackend::kLevels, kTopK = 5, kMaxErrors = 3;
  core::BackendRegistry registry;
  registry.add("failing", [] {
    return std::make_unique<FailingBackend>(kStages, FailingBackend::kLevels);
  });
  runtime::ShardedIndex index(
      registry, runtime::ShardedIndexOptions{.backend = "failing",
                                             .shards = 2});
  Rng rng(11);
  for (int v = 0; v < 32; ++v)
    index.store(random_digits(rng, kStages, kLevels));
  auto good = random_digits(rng, kStages, kLevels);
  good.front() = 0;
  auto bad = good;
  bad.front() = FailingBackend::kFailDigit;
  std::vector<core::TopKEntry> expected;
  {
    runtime::SearchEngine engine(index, {.threads = 1});
    const std::vector<std::vector<int>> batch{good};
    expected = engine.submit_batch(batch, kTopK).front().entries;
  }

  runtime::AmServer am(index, {.engine = {.threads = 1},
                               .scheduler = {.max_delay = 1e-3}});
  // In process, the engine's exception reaches the future as itself.
  EXPECT_THROW(am.submit(bad, kTopK).get(), std::runtime_error);

  // Over the wire, each failure is ERROR/kInternal on its own request id.
  // The server failed, not the client: more failures than the protocol
  // error budget must not cost the connection.
  AmTcpServer tcp(am, {.max_protocol_errors = kMaxErrors});
  AmClient client("127.0.0.1", tcp.port());
  for (int i = 0; i < kMaxErrors + 2; ++i) {
    const auto id = client.send_query(to_wire(bad), kTopK);
    AmClient::Reply reply;
    ASSERT_TRUE(client.recv(reply)) << "server hung up after failure " << i;
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(reply.error.code, WireCode::kInternal);
    EXPECT_EQ(reply.request_id, id);
  }
  const auto reply = client.query(to_wire(good), kTopK);
  ASSERT_EQ(reply.type, MsgType::kQueryReply);
  ASSERT_EQ(reply.query.code, WireCode::kOk);
  ASSERT_EQ(reply.query.entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reply.query.entries[i].row, expected[i].row) << "entry " << i;
    EXPECT_EQ(reply.query.entries[i].score, expected[i].score)
        << "entry " << i;
  }
}

TEST(RuntimeNetServer, NonPositiveFrameCapThrows) {
  Stack stack("behavioral", 4);
  EXPECT_THROW(AmTcpServer(*stack.am, {.max_frame_bytes = 0}),
               std::invalid_argument);
  EXPECT_THROW(AmTcpServer(*stack.am, {.max_frame_bytes = -5}),
               std::invalid_argument);
  EXPECT_THROW(AmTcpServer(*stack.am, {.io_threads = 0}),
               std::invalid_argument);
}

// --- graceful shutdown ----------------------------------------------------

TEST(RuntimeNetServer, StopAnswersEveryInFlightQueryBeforeClosing) {
  // Slow batching so queries are still queued when stop() lands.
  Stack stack("behavioral", 64, {.max_batch = 64, .max_delay = 0.05});
  auto client = stack.connect();
  Rng rng(5);
  constexpr int kInFlight = 30;
  for (int i = 0; i < kInFlight; ++i)
    client.send_query(
        to_wire(random_digits(rng, kStages, stack.index->levels())), 3);

  // Wait until the server has decoded every frame, so stop() races the
  // in-flight queries, not the socket read.
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    double frames = 0;
    for (const auto* c : stack.am->metrics().registry().counters())
      if (c->name() == "tdam_net_frames_in_total") frames = c->value();
    if (frames >= kInFlight) break;
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stack.tcp->stop();

  // Every pipelined query gets a terminal reply — served, or rejected at
  // shutdown — and only then EOF.  None may vanish.
  AmClient::Reply reply;
  int replies = 0;
  while (client.recv(reply)) {
    if (reply.type == MsgType::kQueryReply)
      EXPECT_TRUE(reply.query.code == WireCode::kOk ||
                  reply.query.code == WireCode::kRejected)
          << wire_code_name(reply.query.code);
    else {
      ASSERT_EQ(reply.type, MsgType::kError);
      EXPECT_EQ(reply.error.code, WireCode::kRejected);
    }
    ++replies;
  }
  EXPECT_EQ(replies, kInFlight);
  EXPECT_EQ(stack.tcp->connections(), 0);
}

TEST(RuntimeNetServer, RejectedReplyIsNotHeldBehindAnotherConnectionsQuery) {
  // Connection A's query holds the one queue slot for the 0.5 s batching
  // delay.  Connection B's query is bounced at admission, and its kRejected
  // reply must leave at once, not wait behind A's still-queued query.
  Stack stack("behavioral", 64,
              {.max_batch = 64, .max_delay = 0.5, .queue_capacity = 1,
               .policy = runtime::AdmissionPolicy::kReject});
  auto a = stack.connect();
  auto b = stack.connect();
  Rng rng(5);
  const auto a_id = a.send_query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 3);

  // Wait until the server has counted A's frame and queued its query.
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter_value(*stack.am, "tdam_net_frames_in_total") < 1 ||
         stack.am->metrics().snapshot().queue_depth < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto rejected = b.query(
      to_wire(random_digits(rng, kStages, stack.index->levels())), 3);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  ASSERT_EQ(rejected.type, MsgType::kQueryReply);
  EXPECT_EQ(rejected.query.code, WireCode::kRejected);
  EXPECT_LT(waited, 0.2) << "B's rejection waited behind A's query";

  AmClient::Reply served;
  ASSERT_TRUE(a.recv(served));
  EXPECT_EQ(served.request_id, a_id);
  EXPECT_EQ(served.query.code, WireCode::kOk);
}

TEST(RuntimeNetServer, MetricsInstrumentsAppearInServerRegistry) {
  Stack stack("behavioral", 16);
  {
    auto client = stack.connect();
    Rng rng(5);
    client.query(to_wire(random_digits(rng, kStages, stack.index->levels())),
                 1);
    client.send_query(std::vector<std::uint16_t>(3, 1), 1);  // one error
    AmClient::Reply reply;
    ASSERT_TRUE(client.recv(reply));
  }
  const auto& registry = stack.am->metrics().registry();
  double conns_total = -1, frames = -1, bytes_in = -1, errors = -1;
  for (const auto* c : registry.counters()) {
    if (c->name() == "tdam_net_connections_total") conns_total = c->value();
    if (c->name() == "tdam_net_frames_in_total") frames = c->value();
    if (c->name() == "tdam_net_bytes_in_total") bytes_in = c->value();
    if (c->name() == "tdam_net_protocol_errors_total") errors = c->value();
  }
  EXPECT_GE(conns_total, 1.0);
  EXPECT_GE(frames, 2.0);
  EXPECT_GT(bytes_in, 0.0);
  EXPECT_GE(errors, 1.0);
}

}  // namespace
}  // namespace tdam::net
