// Layer 8 wire protocol: compact length-prefixed binary frames over TCP.
//
// Every message is one frame: a fixed 24-byte little-endian header followed
// by payload_len bytes of typed payload.
//
//   offset  size  field         notes
//   ------  ----  -----------   ----------------------------------------
//        0     2  magic         0x54AD ("TD-AM"), rejects line noise
//        2     1  version       kProtocolVersion; any other byte is
//                               answered with kUnsupportedVersion
//        3     1  type          MsgType
//        4     4  payload_len   bytes after the header (may be 0)
//        8     8  request_id    client-chosen, echoed verbatim in replies
//                               (pipelining correlation); 0 when a reply
//                               answers an unparseable request
//       16     8  trace_id      server-assigned per-query trace id in
//                               QUERY_REPLY headers (correlates with the
//                               flight recorder); 0 in requests and
//                               non-query replies
//
// Requests:  HELLO (empty), QUERY (k, deadline_us, digits), STORE (digits),
//            STORE_BATCH (row-major digit rows), CLEAR (empty),
//            STATS (empty), METRICS (u8 format selector).
// Replies:   one per request type, plus ERROR for requests the server could
//            not act on (malformed/oversized frames, invalid arguments).
//
// Status and error share one namespace (WireCode) so a client switch is
// total: kOk/kRejected/kShed/kDeadlineExpired mirror runtime::QueryStatus
// one-to-one (a degraded query is answered with a QUERY_REPLY carrying the
// code, NOT a disconnect), and the protocol-level codes cover frames the
// server refused to decode.
//
// All integers are little-endian on the wire; doubles are IEEE-754 bit
// patterns in a u64.  Digits travel as u16 (backends cap levels well below
// 2^16).  Encoding never throws on well-formed inputs; decoding throws
// ProtocolError (carrying the WireCode a server should answer with) on any
// bounds violation, bad magic/version, or inconsistent inner lengths.
//
// One version: every frame carries kProtocolVersion (3), and a server
// answers any other version byte with an ERROR/kUnsupportedVersion frame
// before hanging up (framing cannot be trusted past it).  Versions 1 and 2
// (integer QUERY scores; no METRICS message, short STATS replies) are
// retired; every client of this protocol is built from this tree.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.h"
#include "runtime/scheduler.h"

namespace tdam::net {

inline constexpr std::uint16_t kMagic = 0x54AD;
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::size_t kHeaderBytes = 24;
// Default cap a server enforces on payload_len (TcpServerOptions can lower
// or raise it); protects the per-connection buffer from hostile lengths.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloReply = 2,
  kQuery = 3,
  kQueryReply = 4,
  kStore = 5,
  kStoreReply = 6,
  kClear = 7,
  kClearReply = 8,
  kStats = 9,
  kStatsReply = 10,
  kError = 11,
  kStoreBatch = 12,
  kStoreBatchReply = 13,
  kMetrics = 14,       // full observability export over the socket
  kMetricsReply = 15,
};

// What a METRICS request asks the server to render.
enum class MetricsFormat : std::uint8_t {
  kPrometheus = 0,  // text exposition, same bytes as the HTTP /metrics path
  kJson = 1,        // full registry JSON incl. trace + slow-query sections
  kTraces = 2,      // flight-recorder + slow-query dump only (HTTP /traces)
};

// Terminal outcome of a request, as seen on the wire.  The first four values
// mirror runtime::QueryStatus (same meaning, stable numbering); the rest are
// protocol-level errors answered with an ERROR frame.
enum class WireCode : std::uint8_t {
  kOk = 0,
  kRejected = 1,         // bounced at admission (kReject policy / shutdown)
  kShed = 2,             // evicted from the queue by a newer query
  kDeadlineExpired = 3,  // deadline passed before dispatch
  kMalformedFrame = 4,   // payload failed to decode
  kOversizedFrame = 5,   // payload_len above the server's frame cap
  kUnsupportedVersion = 6,
  kUnknownType = 7,
  kInvalidArgument = 8,  // decoded fine, rejected by the serving layer
  kInternal = 9,         // engine threw while answering
};

// Stable label for counters and log lines (never throws; unknown values map
// to "unknown").
const char* wire_code_name(WireCode code);

WireCode to_wire_code(runtime::QueryStatus status);

// Thrown by decoders; `code` is what the server should answer with.
struct ProtocolError : std::runtime_error {
  ProtocolError(WireCode c, const std::string& message)
      : std::runtime_error(message), code(c) {}
  WireCode code;
};

struct FrameHeader {
  std::uint16_t magic = kMagic;
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kHello;
  std::uint32_t payload_len = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
};

// --- typed messages -------------------------------------------------------

struct HelloReply {
  std::uint8_t protocol_version = kProtocolVersion;
  std::uint32_t stages = 0;   // digits per stored vector
  std::uint32_t levels = 0;   // digit alphabet size
  std::uint32_t max_frame_bytes = 0;
  std::uint64_t generation = 0;
  std::string backend;        // registry name serving this index
};

struct QueryRequest {
  std::uint32_t k = 1;
  std::uint32_t deadline_us = 0;  // relative to arrival; 0 = no deadline
  std::vector<std::uint16_t> digits;
};

struct QueryReply {
  WireCode code = WireCode::kInternal;
  std::uint64_t generation = 0;
  // The serving index's metric: tells the client how to order/interpret the
  // scores.
  core::DigitMetric metric = core::DigitMetric::kMismatchCount;
  std::vector<core::TopKEntry> entries;  // present iff code == kOk
};

struct StoreRequest {
  std::vector<std::uint16_t> digits;
};

struct StoreReply {
  std::int32_t row = -1;  // global row id assigned to the stored vector
  std::uint64_t generation = 0;
};

// Multi-row write, so a write stream costs one round-trip per batch rather
// than per row.  `digits` is row-major, rows() * digits_per_row entries;
// rows are stored in request order.
struct StoreBatchRequest {
  std::uint32_t digits_per_row = 0;
  std::vector<std::uint16_t> digits;

  std::uint32_t rows() const {
    return digits_per_row == 0
               ? 0
               : static_cast<std::uint32_t>(digits.size() / digits_per_row);
  }
};

struct StoreBatchReply {
  std::uint32_t rows = 0;       // rows this request stored
  std::int32_t first_row = -1;  // global id of the first stored row, -1 if none
  std::uint64_t generation = 0; // published epoch after the last store
};

struct ClearReply {
  std::uint64_t generation = 0;
};

struct StatsReply {
  std::uint64_t queries = 0;  // answered by the engine (kOk)
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t rows = 0;        // vectors resident in the index
  std::uint64_t generation = 0;
  std::uint64_t connections = 0;      // currently open TCP connections
  std::uint64_t frames_in = 0;        // frames decoded over server lifetime
  std::uint64_t protocol_errors = 0;  // error frames sent over lifetime
  std::uint64_t segments = 0;         // segments in the published snapshot
  std::uint64_t delta_rows = 0;       // rows in unsealed delta segments
  std::uint64_t compactions = 0;      // compaction merges completed
  double qps = 0.0;    // cumulative engine throughput
  double p50_s = 0.0;  // per-query wall latency quantiles (engine-side)
  double p99_s = 0.0;
  // Per-stage latency quantiles, so a dashboard can split a latency
  // regression into queueing vs. scanning without scraping Prometheus.
  double queue_wait_p50_s = 0.0;
  double queue_wait_p99_s = 0.0;
  double batch_wait_p50_s = 0.0;
  double batch_wait_p99_s = 0.0;
  double scan_p50_s = 0.0;
  double scan_p99_s = 0.0;
  double merge_p50_s = 0.0;
  double merge_p99_s = 0.0;
};

// METRICS request/reply: the server renders its whole metrics
// registry — plus trace/slow-query state where the format includes it — as
// one text blob.  Large (can be hundreds of KiB with fine-grained
// histograms): the reply is exempt from the server's inbound frame cap,
// which only governs what clients send.
struct MetricsRequest {
  MetricsFormat format = MetricsFormat::kPrometheus;
};

struct MetricsReply {
  MetricsFormat format = MetricsFormat::kPrometheus;
  std::string text;
};

struct ErrorReply {
  WireCode code = WireCode::kInternal;
  std::string message;
};

// --- byte-level helpers ---------------------------------------------------

// Appends little-endian scalars / length-prefixed blobs to a byte vector.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  // u32 length + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  std::vector<std::uint8_t>& out_;
};

// Bounds-checked little-endian reads; any overrun throws ProtocolError
// (kMalformedFrame) naming the field that fell off the end.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8(const char* field) {
    return static_cast<std::uint8_t>(take(1, field));
  }
  std::uint16_t u16(const char* field) {
    return static_cast<std::uint16_t>(take(2, field));
  }
  std::uint32_t u32(const char* field) {
    return static_cast<std::uint32_t>(take(4, field));
  }
  std::uint64_t u64(const char* field) { return take(8, field); }
  std::int32_t i32(const char* field) {
    return static_cast<std::int32_t>(u32(field));
  }
  double f64(const char* field) {
    const std::uint64_t bits = u64(field);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str(const char* field);

  std::size_t remaining() const { return size_ - pos_; }
  // Whole payloads must be consumed exactly; trailing garbage means the
  // producer and consumer disagree about the schema.
  void expect_empty(const char* what) const {
    if (pos_ != size_)
      throw ProtocolError(WireCode::kMalformedFrame,
                          std::string(what) + ": " +
                              std::to_string(size_ - pos_) +
                              " trailing bytes after payload");
  }

 private:
  std::uint64_t take(std::size_t bytes, const char* field);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- frame encode / decode ------------------------------------------------

// Serializes the header into exactly kHeaderBytes at the start of `out`
// (payload_len is taken from the header struct, not inferred).
void encode_header(const FrameHeader& header, std::vector<std::uint8_t>& out);

// Parses (and validates magic/version) the first kHeaderBytes of `data`.
// Size below kHeaderBytes, wrong magic, or any version other than
// kProtocolVersion throw ProtocolError with kMalformedFrame /
// kUnsupportedVersion.  payload_len is NOT checked against any cap here —
// the transport owns that policy.
FrameHeader decode_header(const std::uint8_t* data, std::size_t size);

// Frame builders: header + typed payload in one buffer, payload_len filled
// in.  `request_id` is echoed; `trace_id` only applies to query replies.
std::vector<std::uint8_t> encode_hello(std::uint64_t request_id);
std::vector<std::uint8_t> encode_hello_reply(
    std::uint64_t request_id, const HelloReply& reply);
std::vector<std::uint8_t> encode_query(std::uint64_t request_id,
                                       const QueryRequest& request);
std::vector<std::uint8_t> encode_query_reply(
    std::uint64_t request_id, std::uint64_t trace_id, const QueryReply& reply);
std::vector<std::uint8_t> encode_store(std::uint64_t request_id,
                                       const StoreRequest& request);
std::vector<std::uint8_t> encode_store_reply(
    std::uint64_t request_id, const StoreReply& reply);
std::vector<std::uint8_t> encode_store_batch(
    std::uint64_t request_id, const StoreBatchRequest& request);
std::vector<std::uint8_t> encode_store_batch_reply(
    std::uint64_t request_id, const StoreBatchReply& reply);
std::vector<std::uint8_t> encode_clear(std::uint64_t request_id);
std::vector<std::uint8_t> encode_clear_reply(
    std::uint64_t request_id, const ClearReply& reply);
std::vector<std::uint8_t> encode_stats(std::uint64_t request_id);
std::vector<std::uint8_t> encode_stats_reply(
    std::uint64_t request_id, const StatsReply& reply);
std::vector<std::uint8_t> encode_metrics(
    std::uint64_t request_id, const MetricsRequest& request);
std::vector<std::uint8_t> encode_metrics_reply(
    std::uint64_t request_id, const MetricsReply& reply);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       const ErrorReply& reply);

// Payload decoders (the caller already split the frame with decode_header).
// All throw ProtocolError on truncation, inconsistent inner counts, or
// trailing bytes.
HelloReply decode_hello_reply(const std::uint8_t* payload, std::size_t size);
QueryRequest decode_query(const std::uint8_t* payload, std::size_t size);
QueryReply decode_query_reply(const std::uint8_t* payload, std::size_t size);
StoreRequest decode_store(const std::uint8_t* payload, std::size_t size);
StoreReply decode_store_reply(const std::uint8_t* payload, std::size_t size);
StoreBatchRequest decode_store_batch(const std::uint8_t* payload,
                                     std::size_t size);
StoreBatchReply decode_store_batch_reply(const std::uint8_t* payload,
                                         std::size_t size);
ClearReply decode_clear_reply(const std::uint8_t* payload, std::size_t size);
StatsReply decode_stats_reply(const std::uint8_t* payload, std::size_t size);
MetricsRequest decode_metrics(const std::uint8_t* payload, std::size_t size);
MetricsReply decode_metrics_reply(const std::uint8_t* payload,
                                  std::size_t size);
ErrorReply decode_error(const std::uint8_t* payload, std::size_t size);

}  // namespace tdam::net
