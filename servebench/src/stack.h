// The serving stack under test, built only through public calls:
// am::calibrate_chain, runtime::default_registry, ShardedIndex::load,
// AmServer, AmTcpServer and AmClient.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "am/calibration.h"
#include "core/registry.h"
#include "net/protocol.h"
#include "net/tcp_server.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"
#include "spans.h"

namespace servebench {

// Calibration and the backend registry closed over it.  Warm restarts in
// the traced run reuse one instance.
struct Calibrated {
  tdam::am::CalibrationResult cal;
  tdam::core::BackendRegistry registry;
};

// A loaded index and an AmServer over it (2 engine threads, default
// scheduler, the given in-program tracing), plus an AmTcpServer on an
// ephemeral loopback port when `wire` is set.  Destruction stops the TCP
// front door, then the server, then the index.
class Stack {
 public:
  // The library's default tracing, pinned rather than read from TDAM_TRACE*
  // so the environment cannot change what is measured.
  Stack(const tdam::core::BackendRegistry& registry,
        const std::string& index_path, bool wire,
        tdam::obs::TraceConfig trace = tdam::obs::TraceConfig{});
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  tdam::runtime::ShardedIndex& index() { return *index_; }
  tdam::runtime::AmServer& server() { return *server_; }
  int port() const { return tcp_->port(); }

  double load_s = 0.0;  // ShardedIndex::load

 private:
  std::unique_ptr<tdam::runtime::ShardedIndex> index_;
  std::unique_ptr<tdam::runtime::AmServer> server_;
  std::unique_ptr<tdam::net::AmTcpServer> tcp_;
};

struct SetupTimes {
  double total_s = 0.0;  // setup_s: calibration through the first reply
  double calibrate_s = 0.0;
  double load_s = 0.0;
};

struct ColdStart {
  std::unique_ptr<Calibrated> calibrated;
  std::unique_ptr<Stack> stack;
  SetupTimes times;
  tdam::net::QueryReply first_reply;
};

// Everything a process does between start and its first answer:
// calibration, index load, server start, then one QUERY of `query` over a
// fresh connection.  The index file must already exist.  Throws
// std::runtime_error when the first reply is not kOk.
ColdStart cold_start(const std::string& index_path,
                     const std::vector<std::uint16_t>& query, int k,
                     SpanLog::Track* track);

}  // namespace servebench
