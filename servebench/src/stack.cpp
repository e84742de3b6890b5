#include "stack.h"

#include <stdexcept>

#include "common.h"
#include "net/client.h"
#include "runtime/backends.h"
#include "util/rng.h"

namespace servebench {
namespace {

std::unique_ptr<Calibrated> calibrate() {
  tdam::am::ChainConfig config;
  config.encoding = tdam::am::Encoding(kBits);
  tdam::Rng rng(8);
  auto out = std::make_unique<Calibrated>();
  out->cal = tdam::am::calibrate_chain(config, rng);
  out->registry =
      tdam::runtime::default_registry(out->cal, {.stages = kStages});
  return out;
}

}  // namespace

Stack::Stack(const tdam::core::BackendRegistry& registry,
             const std::string& index_path, bool wire,
             tdam::obs::TraceConfig trace) {
  const auto t0 = Clock::now();
  index_ = std::make_unique<tdam::runtime::ShardedIndex>(
      tdam::runtime::ShardedIndex::load(registry, index_path));
  load_s = seconds_since(t0);
  tdam::runtime::ServerOptions options;
  options.engine.threads = kEngineThreads;
  options.trace = trace;
  server_ = std::make_unique<tdam::runtime::AmServer>(*index_, options);
  if (wire) tcp_ = std::make_unique<tdam::net::AmTcpServer>(*server_);
}

Stack::~Stack() {
  tcp_.reset();
  server_.reset();
  index_.reset();
}

ColdStart cold_start(const std::string& index_path,
                     const std::vector<std::uint16_t>& query, int k,
                     SpanLog::Track* track) {
  ColdStart out;
  const std::int64_t t0 = now_ns();
  out.calibrated = calibrate();
  const std::int64_t t1 = now_ns();
  out.stack = std::make_unique<Stack>(out.calibrated->registry, index_path,
                                      /*wire=*/true);
  const std::int64_t t2 = now_ns();
  tdam::net::AmClient client("127.0.0.1", out.stack->port());
  const auto reply = client.query(query, static_cast<std::uint32_t>(k));
  const std::int64_t t3 = now_ns();
  if (reply.type != tdam::net::MsgType::kQueryReply ||
      reply.query.code != tdam::net::WireCode::kOk)
    throw std::runtime_error("cold start: first query was not answered");
  out.first_reply = reply.query;
  out.times.total_s = static_cast<double>(t3 - t0) * 1e-9;
  out.times.calibrate_s = static_cast<double>(t1 - t0) * 1e-9;
  out.times.load_s = out.stack->load_s;
  if (track != nullptr) {
    const auto root = track->add("setup", t0, t3);
    track->add("am.calibrate_chain", t0, t1, root);
    const auto load_end =
        t1 + static_cast<std::int64_t>(out.stack->load_s * 1e9);
    track->add("runtime.index.load", t1, load_end, root);
    track->add("runtime.server.start", load_end, t2, root);
    track->add("net.first_reply", t2, t3, root);
  }
  return out;
}

}  // namespace servebench
