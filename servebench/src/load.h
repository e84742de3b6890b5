// Load generation: the workloads over the wire (AmClient against
// AmTcpServer) and their in-process replay (AmServer::submit / store) for
// the traced run.  Open-loop generators time each request from the instant
// it was due, so a stalled sender charges the stall to every request behind
// it; they also record how late the sender ran.  Closed-loop generators
// time from the send.  Every generator starts at the absolute steady-clock
// instant it is given, so readers and a writer can share one schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend.h"
#include "inputs.h"
#include "net/protocol.h"
#include "runtime/server.h"
#include "spans.h"

namespace servebench {

struct ReadRecord {
  int pool = 0;
  bool answered = false;
  bool in_window = true;  // closed loop: the reply arrived before the end
  tdam::net::WireCode code = tdam::net::WireCode::kInternal;
  std::uint64_t generation = 0;
  std::uint64_t trace_id = 0;  // the server's id for this query
  double latency_ms = 0.0;
  double send_ms = 0.0;       // the AmClient::send_query call
  std::int64_t reply_ns = 0;  // when the reply was received
  std::vector<tdam::core::TopKEntry> entries;
};

struct ReadRun {
  std::vector<ReadRecord> reads;
  std::int64_t start_ns = 0;  // the window's first due instant
  // Open loop: first due instant to the last reply.  Closed loop: start
  // to the last reply inside the window.
  double elapsed_s = 0.0;
  std::vector<double> late_ms;  // open loop: send instant minus due instant
  long unmatched = 0;           // replies whose request id matched nothing
};

// `qps` QUERY frames per second for `seconds` on one connection.
ReadRun wire_open_loop(int port, const Inputs& inputs, double qps,
                       double seconds, std::int64_t start_ns,
                       SpanLog::Track* track);

// `connections` connections, each keeping `outstanding` QUERY frames in
// flight until `seconds` have passed, then draining.  Runs one connection
// on the calling thread and the others on their own threads.
ReadRun wire_closed_loop(int port, const Inputs& inputs, int connections,
                         int outstanding, double seconds,
                         std::int64_t start_ns, SpanLog* log);

struct WriteRun {
  std::vector<double> latency_ms;  // per frame, from the send
  std::int64_t start_ns = 0;          // when the first frame was due
  std::vector<std::int64_t> ack_ns;  // per stored frame, its reply
  long frames = 0;
  long failed = 0;  // frames not stored as sent, or at the wrong ids
};

// Sends the write stream in order as STORE_BATCH frames of kWriteBatch
// rows, back to back, each waiting for its reply, until `seconds` have
// passed (when > 0) or `frames` are acknowledged (when > 0).  The rate it
// reaches is the program's write capacity.  The index must hold only the
// base rows and have no other writer, so frame j must land at ids
// base_rows + j * kWriteBatch onward.
WriteRun wire_writer(int port, const Inputs& inputs, double seconds,
                     int frames, std::int64_t start_ns,
                     SpanLog::Track* track);

// One in-process query as AmServer answered it.
struct ReplayRecord {
  int pool = 0;
  bool in_window = true;
  tdam::runtime::QueryStatus status = tdam::runtime::QueryStatus::kRejected;
  std::uint64_t generation = 0;
  std::vector<tdam::core::TopKEntry> entries;
  double ready_ms = 0.0;  // due (open) or submit (closed) to future ready
  double queue_wait_ms = -1.0;  // ServedResult stages
  double batch_wait_ms = -1.0;
};

struct ReplayRun {
  std::vector<ReplayRecord> reads;
};

// The open-loop schedule of wire_open_loop through AmServer::submit: one
// thread submits on schedule, the calling thread waits for each future.
ReplayRun replay_open_loop(tdam::runtime::AmServer& server,
                           const Inputs& inputs, double qps, double seconds,
                           std::int64_t start_ns, SpanLog::Track* track);

// The closed loop of wire_closed_loop through AmServer::submit.
ReplayRun replay_closed_loop(tdam::runtime::AmServer& server,
                             const Inputs& inputs, int clients,
                             int outstanding, double seconds,
                             std::int64_t start_ns, SpanLog* log);

// wire_writer's frames through AmServer::store, row by row, back to back
// for `seconds`.
void replay_writer(tdam::runtime::AmServer& server, const Inputs& inputs,
                   double seconds, std::int64_t start_ns);

}  // namespace servebench
