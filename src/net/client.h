// Client side of the Layer-8 wire protocol: a blocking TCP connection that
// speaks the framed protocol in two styles —
//
//  * synchronous  — hello()/query()/store()/clear()/stats() send one request
//    and block until the reply carrying its request_id arrives;
//  * pipelined    — send_query()/send_hello()/… enqueue a request without
//    waiting and return its request_id; recv() blocks for the next reply
//    frame, which the caller MUST correlate by Reply::request_id: the
//    server does not answer in request order (a STATS reply can overtake
//    a query, and queries of different k in one micro-batch can finish in
//    either order).  Keeping many queries in flight on one connection is
//    how loadgen reaches high QPS without a thread per request.
//
// Degraded queries are normal replies: a query bounced by admission control
// arrives as Reply{type=kQueryReply, code=kRejected}, not an exception.
// Only transport failures (connect/EOF/socket errors) throw
// std::runtime_error; undecodable reply bytes throw ProtocolError.
//
// send_raw() writes arbitrary bytes to the socket — the escape hatch the
// protocol-robustness tests use to aim malformed/oversized/garbage frames at
// a live server.
//
// AmClient is NOT thread-safe; use one instance per thread (loadgen pairs a
// sender and a receiver per connection, which is safe: the socket is
// full-duplex and send_* only touches the write side, recv only the read
// side — see the *_split notes on recv()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace tdam::net {

class AmClient {
 public:
  // Connects (blocking) and enables TCP_NODELAY; throws std::runtime_error
  // on failure.  Every request is stamped with kProtocolVersion.
  AmClient(const std::string& host, int port);
  ~AmClient();

  AmClient(const AmClient&) = delete;
  AmClient& operator=(const AmClient&) = delete;
  AmClient(AmClient&& other) noexcept;
  AmClient& operator=(AmClient&&) = delete;

  // One decoded reply frame.  `type` selects which payload member is
  // meaningful; request_id echoes the request, trace_id is non-zero only on
  // query replies from a tracing server.
  struct Reply {
    MsgType type = MsgType::kError;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    HelloReply hello;
    QueryReply query;
    StoreReply store;
    StoreBatchReply store_batch;
    ClearReply clear;
    StatsReply stats;
    MetricsReply metrics;
    ErrorReply error;
  };

  // --- synchronous calls (send + wait for the matching reply) -------------

  HelloReply hello();
  // deadline_us == 0 means no deadline.  The reply's code carries the
  // admission/deadline outcome; entries are present iff code == kOk.
  Reply query(const std::vector<std::uint16_t>& digits, std::uint32_t k,
              std::uint32_t deadline_us = 0);
  Reply store(const std::vector<std::uint16_t>& digits);
  // Stores digits.size()/digits_per_row rows in one frame; digits is
  // row-major.  The reply reports how many rows landed and the id of the
  // first one (consecutive only under a single-writer protocol — concurrent
  // writers interleave ids).
  Reply store_batch(const std::vector<std::uint16_t>& digits,
                    std::uint32_t digits_per_row);
  Reply clear();
  StatsReply stats();
  // Full observability export over the query socket: Prometheus text,
  // registry JSON, or the trace/slow-query dump — the same bytes the
  // embedded HTTP listener serves.
  MetricsReply metrics(MetricsFormat format = MetricsFormat::kPrometheus);

  // --- pipelined calls ----------------------------------------------------

  // Enqueue without waiting; returns the request_id to correlate with.
  std::uint64_t send_hello();
  std::uint64_t send_query(const std::vector<std::uint16_t>& digits,
                           std::uint32_t k, std::uint32_t deadline_us = 0);
  std::uint64_t send_store(const std::vector<std::uint16_t>& digits);
  std::uint64_t send_store_batch(const std::vector<std::uint16_t>& digits,
                                 std::uint32_t digits_per_row);
  std::uint64_t send_stats();
  std::uint64_t send_metrics(MetricsFormat format = MetricsFormat::kPrometheus);

  // Blocks for the next reply frame in arrival order.  Returns false on
  // clean EOF (server hung up with nothing buffered); throws on transport
  // errors, mid-frame EOF, or undecodable replies.  Safe to run concurrently
  // with send_* from ONE other thread (full-duplex split); never run two
  // concurrent recv() or two concurrent send_* calls.
  bool recv(Reply& out);

  // Writes raw bytes verbatim (tests: malformed frames, bad magic, ...).
  void send_raw(const std::vector<std::uint8_t>& bytes);

  // Half-close the write side: the server sees EOF, flushes replies, and
  // closes; recv() then drains to a clean EOF.
  void shutdown_write();

  int fd() const { return fd_; }

 private:
  std::uint64_t next_id() { return next_request_id_++; }
  void write_all(const std::uint8_t* data, std::size_t size);
  // Returns false on EOF at a frame boundary; throws mid-frame.
  bool read_frame(FrameHeader& header, std::vector<std::uint8_t>& payload);
  Reply wait_for(std::uint64_t request_id);

  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace tdam::net
