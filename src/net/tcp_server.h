// Layer 8 transport: an epoll-based non-blocking TCP front door for
// runtime::AmServer.
//
// Thread model: `io_threads` epoll loops and nothing else.  Thread 0 owns
// the listening socket; accepted connections are assigned round-robin
// across the loops.  The loop that owns a connection reads its bytes,
// splits and validates frames, and answers HELLO, STATS, METRICS, STORE,
// STORE_BATCH and CLEAR inline.  For a QUERY it calls AmServer::submit with
// a completion callback; AmServer's dispatcher runs that callback for
// answered, expired and failed queries, and the scheduler runs it inside
// submit for rejected and shed ones.  The callback encodes the QUERY_REPLY
// — request_id echoed, trace_id in the reply header, degraded QueryStatus
// mapped to its WireCode — appends it to the connection's outbox and
// wakes the owning loop through an eventfd (only when that loop's inbox
// was empty, so replies that arrive faster than the loop drains them
// share one wakeup); that loop writes them at once, without holding the
// outbox lock, and arms EPOLLOUT only if the socket buffer is full.  Replies therefore leave in completion
// order, not request order: a client that pipelines must match them by
// request_id.  Under a kBlock scheduler a full admission queue stalls the
// submitting loop's reads (and that loop's other connections); callbacks
// never wait on a loop, so this cannot deadlock.
//
// Protocol errors are replies, not disconnects: an oversized frame is
// answered with ERROR/kOversizedFrame and its payload discarded from the
// stream; a frame whose payload fails to decode is answered with
// ERROR/kMalformedFrame; both leave the connection serving.  Each
// connection carries its own error counter — a peer exceeding
// `max_protocol_errors` is disconnected after the final error reply
// flushes.  Only an unsynchronizable stream (bad magic / unsupported
// version, where framing itself is lost) closes the connection, again
// after an ERROR reply is flushed.  An engine failure is the server's
// fault, not the client's: it is answered with ERROR/kInternal on that
// query's request_id and never counts against the budget.
//
// Graceful shutdown (stop(), also run by the destructor): (1) the listener
// closes and every loop acknowledges that it has stopped reading; (2) every
// query those loops submitted runs its callback — unbounded, since no
// callback may outlive this object; (3) reply bytes are flushed to every
// socket, bounded by drain_timeout; (4) the loops close their connections
// and exit, and only then are their eventfd and epoll descriptors closed.
// No accepted query is silently dropped.
//
// Observability: the server registers instruments in the AmServer's
// MetricsRegistry (exported by the existing Prometheus/JSON scrapers):
// tdam_net_connections / _connections_total, tdam_net_bytes_{in,out}_total,
// tdam_net_frames_{in,out}_total, and tdam_net_protocol_errors_total with a
// per-WireCode `code` label.
//
// Wire-level tracing: when the AmServer's flight recorder is on, every
// QUERY frame's span is seeded at the I/O thread (enqueue base = the
// frame-receipt instant) and stamped io_recv → decode → submit_queue (the
// AmServer::submit call) → [serving stages] → encode (in the callback) →
// io_send, with io_send taken when the reply's last byte reaches the
// kernel.  Such a span is recorded (flight-recorder sampling, plus the
// AmServer's slow-query log regardless of sampling) only at that final
// stamp, so one span reconciles client-observed latency against server
// internals.  A v3 METRICS request returns the whole registry (Prometheus
// text / JSON / trace dump) over the query socket.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/protocol.h"
#include "runtime/server.h"

namespace tdam::net {

struct TcpServerOptions {
  std::string host = "127.0.0.1";  // bind address ("0.0.0.0" for all)
  int port = 0;                    // 0 = ephemeral; see AmTcpServer::port()
  int io_threads = 2;
  // Hard cap on payload_len; larger frames are answered with
  // ERROR/kOversizedFrame and skipped.  Must be positive (the constructor
  // throws std::invalid_argument otherwise).
  int max_frame_bytes = static_cast<int>(kDefaultMaxFrameBytes);
  // Per-connection protocol-error budget before the server hangs up.
  int max_protocol_errors = 16;
  // stop(): seconds to wait for reply bytes to flush before closing.
  double drain_timeout = 5.0;
};

class AmTcpServer {
 public:
  // Binds, listens, and starts the `io_threads` loops; throws
  // std::invalid_argument on bad options and std::runtime_error on socket
  // failures.  `server` must outlive this object.
  AmTcpServer(runtime::AmServer& server, TcpServerOptions options = {});
  ~AmTcpServer();

  AmTcpServer(const AmTcpServer&) = delete;
  AmTcpServer& operator=(const AmTcpServer&) = delete;

  // The bound port (resolves option port == 0 to the kernel-assigned one).
  int port() const;
  const TcpServerOptions& options() const;

  // Currently open client connections.
  int connections() const;

  // Graceful shutdown as described above.  Idempotent; run by the
  // destructor.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tdam::net
