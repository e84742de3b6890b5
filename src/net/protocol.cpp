#include "net/protocol.h"

namespace tdam::net {

namespace {

// Inner arrays carry explicit counts; cap them against what the remaining
// payload could possibly hold so a hostile count cannot force a huge
// allocation before the bounds check trips.
void check_count(std::uint32_t count, std::size_t elem_bytes,
                 std::size_t remaining, const char* field) {
  if (elem_bytes > 0 && count > remaining / elem_bytes)
    throw ProtocolError(WireCode::kMalformedFrame,
                        std::string(field) + ": count " +
                            std::to_string(count) + " exceeds the " +
                            std::to_string(remaining) +
                            " payload bytes remaining");
}

std::vector<std::uint8_t> frame(MsgType type, std::uint64_t request_id,
                                std::uint64_t trace_id,
                                const std::vector<std::uint8_t>& payload) {
  FrameHeader header;
  header.type = type;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.request_id = request_id;
  header.trace_id = trace_id;
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  encode_header(header, out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> empty_frame(MsgType type, std::uint64_t request_id) {
  return frame(type, request_id, 0, {});
}

}  // namespace

const char* wire_code_name(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "ok";
    case WireCode::kRejected: return "rejected";
    case WireCode::kShed: return "shed";
    case WireCode::kDeadlineExpired: return "deadline_expired";
    case WireCode::kMalformedFrame: return "malformed_frame";
    case WireCode::kOversizedFrame: return "oversized_frame";
    case WireCode::kUnsupportedVersion: return "unsupported_version";
    case WireCode::kUnknownType: return "unknown_type";
    case WireCode::kInvalidArgument: return "invalid_argument";
    case WireCode::kInternal: return "internal";
  }
  return "unknown";
}

WireCode to_wire_code(runtime::QueryStatus status) {
  switch (status) {
    case runtime::QueryStatus::kOk: return WireCode::kOk;
    case runtime::QueryStatus::kRejected: return WireCode::kRejected;
    case runtime::QueryStatus::kShed: return WireCode::kShed;
    case runtime::QueryStatus::kDeadlineExpired:
      return WireCode::kDeadlineExpired;
  }
  return WireCode::kInternal;
}

std::string WireReader::str(const char* field) {
  const std::uint32_t len = u32(field);
  if (len > remaining())
    throw ProtocolError(WireCode::kMalformedFrame,
                        std::string(field) + ": string length " +
                            std::to_string(len) + " exceeds the " +
                            std::to_string(remaining()) +
                            " payload bytes remaining");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

std::uint64_t WireReader::take(std::size_t bytes, const char* field) {
  if (size_ - pos_ < bytes)
    throw ProtocolError(WireCode::kMalformedFrame,
                        std::string(field) + ": payload truncated (" +
                            std::to_string(size_ - pos_) + " of " +
                            std::to_string(bytes) + " bytes present)");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += bytes;
  return v;
}

void encode_header(const FrameHeader& header, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u16(header.magic);
  w.u8(header.version);
  w.u8(static_cast<std::uint8_t>(header.type));
  w.u32(header.payload_len);
  w.u64(header.request_id);
  w.u64(header.trace_id);
}

FrameHeader decode_header(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderBytes)
    throw ProtocolError(WireCode::kMalformedFrame,
                        "frame header truncated: " + std::to_string(size) +
                            " of " + std::to_string(kHeaderBytes) + " bytes");
  WireReader r(data, kHeaderBytes);
  FrameHeader header;
  header.magic = r.u16("magic");
  header.version = r.u8("version");
  header.type = static_cast<MsgType>(r.u8("type"));
  header.payload_len = r.u32("payload_len");
  header.request_id = r.u64("request_id");
  header.trace_id = r.u64("trace_id");
  if (header.magic != kMagic)
    throw ProtocolError(WireCode::kMalformedFrame,
                        "bad magic 0x" + std::to_string(header.magic) +
                            " (stream out of sync)");
  if (header.version != kProtocolVersion)
    throw ProtocolError(WireCode::kUnsupportedVersion,
                        "protocol version " + std::to_string(header.version) +
                            " not supported (server speaks " +
                            std::to_string(kProtocolVersion) + ")");
  return header;
}

// --- encoders -------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint64_t request_id) {
  return empty_frame(MsgType::kHello, request_id);
}

std::vector<std::uint8_t> encode_hello_reply(std::uint64_t request_id,
                                             const HelloReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(reply.protocol_version);
  w.u32(reply.stages);
  w.u32(reply.levels);
  w.u32(reply.max_frame_bytes);
  w.u64(reply.generation);
  w.str(reply.backend);
  return frame(MsgType::kHelloReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_query(std::uint64_t request_id,
                                       const QueryRequest& request) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(request.k);
  w.u32(request.deadline_us);
  w.u32(static_cast<std::uint32_t>(request.digits.size()));
  for (const auto d : request.digits) w.u16(d);
  return frame(MsgType::kQuery, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_query_reply(std::uint64_t request_id,
                                             std::uint64_t trace_id,
                                             const QueryReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(static_cast<std::uint8_t>(reply.code));
  w.u64(reply.generation);
  w.u8(static_cast<std::uint8_t>(reply.metric));
  w.u32(static_cast<std::uint32_t>(reply.entries.size()));
  for (const auto& e : reply.entries) {
    w.i32(e.row);
    w.f64(e.score);
  }
  return frame(MsgType::kQueryReply, request_id, trace_id, payload);
}

std::vector<std::uint8_t> encode_store(std::uint64_t request_id,
                                       const StoreRequest& request) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(static_cast<std::uint32_t>(request.digits.size()));
  for (const auto d : request.digits) w.u16(d);
  return frame(MsgType::kStore, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_store_reply(std::uint64_t request_id,
                                             const StoreReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.i32(reply.row);
  w.u64(reply.generation);
  return frame(MsgType::kStoreReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_store_batch(std::uint64_t request_id,
                                             const StoreBatchRequest& request) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(request.rows());
  w.u32(request.digits_per_row);
  for (const auto d : request.digits) w.u16(d);
  return frame(MsgType::kStoreBatch, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_store_batch_reply(
    std::uint64_t request_id, const StoreBatchReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(reply.rows);
  w.i32(reply.first_row);
  w.u64(reply.generation);
  return frame(MsgType::kStoreBatchReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_clear(std::uint64_t request_id) {
  return empty_frame(MsgType::kClear, request_id);
}

std::vector<std::uint8_t> encode_clear_reply(std::uint64_t request_id,
                                             const ClearReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u64(reply.generation);
  return frame(MsgType::kClearReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_stats(std::uint64_t request_id) {
  return empty_frame(MsgType::kStats, request_id);
}

std::vector<std::uint8_t> encode_stats_reply(std::uint64_t request_id,
                                             const StatsReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u64(reply.queries);
  w.u64(reply.rejected);
  w.u64(reply.shed);
  w.u64(reply.expired);
  w.u64(reply.rows);
  w.u64(reply.generation);
  w.u64(reply.connections);
  w.u64(reply.frames_in);
  w.u64(reply.protocol_errors);
  w.u64(reply.segments);
  w.u64(reply.delta_rows);
  w.u64(reply.compactions);
  w.f64(reply.qps);
  w.f64(reply.p50_s);
  w.f64(reply.p99_s);
  w.f64(reply.queue_wait_p50_s);
  w.f64(reply.queue_wait_p99_s);
  w.f64(reply.batch_wait_p50_s);
  w.f64(reply.batch_wait_p99_s);
  w.f64(reply.scan_p50_s);
  w.f64(reply.scan_p99_s);
  w.f64(reply.merge_p50_s);
  w.f64(reply.merge_p99_s);
  return frame(MsgType::kStatsReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_metrics(std::uint64_t request_id,
                                         const MetricsRequest& request) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(static_cast<std::uint8_t>(request.format));
  return frame(MsgType::kMetrics, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_metrics_reply(std::uint64_t request_id,
                                               const MetricsReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(static_cast<std::uint8_t>(reply.format));
  w.str(reply.text);
  return frame(MsgType::kMetricsReply, request_id, 0, payload);
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       const ErrorReply& reply) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u8(static_cast<std::uint8_t>(reply.code));
  w.str(reply.message);
  return frame(MsgType::kError, request_id, 0, payload);
}

// --- decoders -------------------------------------------------------------

HelloReply decode_hello_reply(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  HelloReply reply;
  reply.protocol_version = r.u8("hello.protocol_version");
  reply.stages = r.u32("hello.stages");
  reply.levels = r.u32("hello.levels");
  reply.max_frame_bytes = r.u32("hello.max_frame_bytes");
  reply.generation = r.u64("hello.generation");
  reply.backend = r.str("hello.backend");
  r.expect_empty("hello_reply");
  return reply;
}

QueryRequest decode_query(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  QueryRequest request;
  request.k = r.u32("query.k");
  request.deadline_us = r.u32("query.deadline_us");
  const std::uint32_t n = r.u32("query.digit_count");
  check_count(n, 2, r.remaining(), "query.digit_count");
  request.digits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    request.digits.push_back(r.u16("query.digits"));
  r.expect_empty("query");
  return request;
}

QueryReply decode_query_reply(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  QueryReply reply;
  reply.code = static_cast<WireCode>(r.u8("query_reply.code"));
  reply.generation = r.u64("query_reply.generation");
  const std::uint8_t metric_id = r.u8("query_reply.metric");
  try {
    reply.metric = core::metric_from_wire(metric_id);
  } catch (const std::exception& e) {
    throw ProtocolError(WireCode::kMalformedFrame,
                        std::string("query_reply.metric: ") + e.what());
  }
  const std::uint32_t n = r.u32("query_reply.entry_count");
  check_count(n, 12, r.remaining(), "query_reply.entry_count");
  reply.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::TopKEntry e;
    e.row = r.i32("query_reply.row");
    e.score = r.f64("query_reply.score");
    reply.entries.push_back(e);
  }
  r.expect_empty("query_reply");
  return reply;
}

StoreRequest decode_store(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  StoreRequest request;
  const std::uint32_t n = r.u32("store.digit_count");
  check_count(n, 2, r.remaining(), "store.digit_count");
  request.digits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    request.digits.push_back(r.u16("store.digits"));
  r.expect_empty("store");
  return request;
}

StoreReply decode_store_reply(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  StoreReply reply;
  reply.row = r.i32("store_reply.row");
  reply.generation = r.u64("store_reply.generation");
  r.expect_empty("store_reply");
  return reply;
}

StoreBatchRequest decode_store_batch(const std::uint8_t* payload,
                                     std::size_t size) {
  WireReader r(payload, size);
  StoreBatchRequest request;
  const std::uint32_t rows = r.u32("store_batch.row_count");
  request.digits_per_row = r.u32("store_batch.digits_per_row");
  if (rows > 0 && request.digits_per_row == 0)
    throw ProtocolError(WireCode::kMalformedFrame,
                        "store_batch.digits_per_row: 0 digits per row with " +
                            std::to_string(rows) + " rows");
  // Row-count bound works per-row so rows * digits_per_row cannot overflow
  // before the check trips.
  check_count(rows, 2 * static_cast<std::size_t>(request.digits_per_row),
              r.remaining(), "store_batch.row_count");
  const std::uint64_t total =
      static_cast<std::uint64_t>(rows) * request.digits_per_row;
  request.digits.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i)
    request.digits.push_back(r.u16("store_batch.digits"));
  r.expect_empty("store_batch");
  return request;
}

StoreBatchReply decode_store_batch_reply(const std::uint8_t* payload,
                                         std::size_t size) {
  WireReader r(payload, size);
  StoreBatchReply reply;
  reply.rows = r.u32("store_batch_reply.rows");
  reply.first_row = r.i32("store_batch_reply.first_row");
  reply.generation = r.u64("store_batch_reply.generation");
  r.expect_empty("store_batch_reply");
  return reply;
}

ClearReply decode_clear_reply(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  ClearReply reply;
  reply.generation = r.u64("clear_reply.generation");
  r.expect_empty("clear_reply");
  return reply;
}

StatsReply decode_stats_reply(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  StatsReply reply;
  reply.queries = r.u64("stats.queries");
  reply.rejected = r.u64("stats.rejected");
  reply.shed = r.u64("stats.shed");
  reply.expired = r.u64("stats.expired");
  reply.rows = r.u64("stats.rows");
  reply.generation = r.u64("stats.generation");
  reply.connections = r.u64("stats.connections");
  reply.frames_in = r.u64("stats.frames_in");
  reply.protocol_errors = r.u64("stats.protocol_errors");
  reply.segments = r.u64("stats.segments");
  reply.delta_rows = r.u64("stats.delta_rows");
  reply.compactions = r.u64("stats.compactions");
  reply.qps = r.f64("stats.qps");
  reply.p50_s = r.f64("stats.p50_s");
  reply.p99_s = r.f64("stats.p99_s");
  reply.queue_wait_p50_s = r.f64("stats.queue_wait_p50_s");
  reply.queue_wait_p99_s = r.f64("stats.queue_wait_p99_s");
  reply.batch_wait_p50_s = r.f64("stats.batch_wait_p50_s");
  reply.batch_wait_p99_s = r.f64("stats.batch_wait_p99_s");
  reply.scan_p50_s = r.f64("stats.scan_p50_s");
  reply.scan_p99_s = r.f64("stats.scan_p99_s");
  reply.merge_p50_s = r.f64("stats.merge_p50_s");
  reply.merge_p99_s = r.f64("stats.merge_p99_s");
  r.expect_empty("stats_reply");
  return reply;
}

MetricsRequest decode_metrics(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  MetricsRequest request;
  const std::uint8_t format = r.u8("metrics.format");
  if (format > static_cast<std::uint8_t>(MetricsFormat::kTraces))
    throw ProtocolError(WireCode::kMalformedFrame,
                        "metrics.format: unknown format " +
                            std::to_string(format));
  request.format = static_cast<MetricsFormat>(format);
  r.expect_empty("metrics");
  return request;
}

MetricsReply decode_metrics_reply(const std::uint8_t* payload,
                                  std::size_t size) {
  WireReader r(payload, size);
  MetricsReply reply;
  const std::uint8_t format = r.u8("metrics_reply.format");
  if (format > static_cast<std::uint8_t>(MetricsFormat::kTraces))
    throw ProtocolError(WireCode::kMalformedFrame,
                        "metrics_reply.format: unknown format " +
                            std::to_string(format));
  reply.format = static_cast<MetricsFormat>(format);
  reply.text = r.str("metrics_reply.text");
  r.expect_empty("metrics_reply");
  return reply;
}

ErrorReply decode_error(const std::uint8_t* payload, std::size_t size) {
  WireReader r(payload, size);
  ErrorReply reply;
  reply.code = static_cast<WireCode>(r.u8("error.code"));
  reply.message = r.str("error.message");
  r.expect_empty("error");
  return reply;
}

}  // namespace tdam::net
