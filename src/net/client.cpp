#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace tdam::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("AmClient: " + what + ": " + std::strerror(errno));
}

}  // namespace

AmClient::AmClient(const std::string& host, int port) {
  if (port <= 0 || port > 65535)
    throw std::invalid_argument("AmClient: port must be in [1, 65535] (got " +
                                std::to_string(port) + ")");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::invalid_argument("AmClient: bad address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

AmClient::~AmClient() {
  if (fd_ >= 0) ::close(fd_);
}

AmClient::AmClient(AmClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_) {}

// --- transport --------------------------------------------------------------

void AmClient::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool AmClient::read_frame(FrameHeader& header,
                          std::vector<std::uint8_t>& payload) {
  std::uint8_t raw[kHeaderBytes];
  std::size_t got = 0;
  while (got < kHeaderBytes) {
    const ssize_t n = ::read(fd_, raw + got, kHeaderBytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between frames
      throw std::runtime_error("AmClient: EOF inside a frame header");
    }
    got += static_cast<std::size_t>(n);
  }
  header = decode_header(raw, kHeaderBytes);
  payload.resize(header.payload_len);
  got = 0;
  while (got < payload.size()) {
    const ssize_t n = ::read(fd_, payload.data() + got, payload.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0)
      throw std::runtime_error("AmClient: EOF inside a frame payload");
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void AmClient::send_raw(const std::vector<std::uint8_t>& bytes) {
  write_all(bytes.data(), bytes.size());
}

void AmClient::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

// --- pipelined sends --------------------------------------------------------

std::uint64_t AmClient::send_hello() {
  const auto id = next_id();
  const auto frame = encode_hello(id);
  write_all(frame.data(), frame.size());
  return id;
}

std::uint64_t AmClient::send_query(const std::vector<std::uint16_t>& digits,
                                   std::uint32_t k,
                                   std::uint32_t deadline_us) {
  const auto id = next_id();
  QueryRequest request;
  request.k = k;
  request.deadline_us = deadline_us;
  request.digits = digits;
  const auto frame = encode_query(id, request);
  write_all(frame.data(), frame.size());
  return id;
}

std::uint64_t AmClient::send_store(const std::vector<std::uint16_t>& digits) {
  const auto id = next_id();
  const auto frame = encode_store(id, StoreRequest{digits});
  write_all(frame.data(), frame.size());
  return id;
}

std::uint64_t AmClient::send_store_batch(
    const std::vector<std::uint16_t>& digits, std::uint32_t digits_per_row) {
  const auto id = next_id();
  StoreBatchRequest request;
  request.digits_per_row = digits_per_row;
  request.digits = digits;
  const auto frame = encode_store_batch(id, request);
  write_all(frame.data(), frame.size());
  return id;
}

std::uint64_t AmClient::send_stats() {
  const auto id = next_id();
  const auto frame = encode_stats(id);
  write_all(frame.data(), frame.size());
  return id;
}

std::uint64_t AmClient::send_metrics(MetricsFormat format) {
  const auto id = next_id();
  const auto frame = encode_metrics(id, MetricsRequest{format});
  write_all(frame.data(), frame.size());
  return id;
}

// --- receive ----------------------------------------------------------------

bool AmClient::recv(Reply& out) {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  if (!read_frame(header, payload)) return false;
  out = Reply{};
  out.type = header.type;
  out.request_id = header.request_id;
  out.trace_id = header.trace_id;
  switch (header.type) {
    case MsgType::kHelloReply:
      out.hello = decode_hello_reply(payload.data(), payload.size());
      return true;
    case MsgType::kQueryReply:
      out.query = decode_query_reply(payload.data(), payload.size());
      return true;
    case MsgType::kStoreReply:
      out.store = decode_store_reply(payload.data(), payload.size());
      return true;
    case MsgType::kStoreBatchReply:
      out.store_batch = decode_store_batch_reply(payload.data(), payload.size());
      return true;
    case MsgType::kClearReply:
      out.clear = decode_clear_reply(payload.data(), payload.size());
      return true;
    case MsgType::kStatsReply:
      out.stats = decode_stats_reply(payload.data(), payload.size());
      return true;
    case MsgType::kMetricsReply:
      out.metrics = decode_metrics_reply(payload.data(), payload.size());
      return true;
    case MsgType::kError:
      out.error = decode_error(payload.data(), payload.size());
      return true;
    default:
      throw ProtocolError(WireCode::kUnknownType,
                          "AmClient: server sent unexpected frame type " +
                              std::to_string(static_cast<int>(header.type)));
  }
}

AmClient::Reply AmClient::wait_for(std::uint64_t request_id) {
  Reply reply;
  for (;;) {
    if (!recv(reply))
      throw std::runtime_error(
          "AmClient: connection closed while awaiting reply " +
          std::to_string(request_id));
    if (reply.request_id == request_id) return reply;
    // Replies for other pipelined requests are not ours to consume in
    // synchronous mode; one connection should use one style at a time.
  }
}

// --- synchronous calls ------------------------------------------------------

HelloReply AmClient::hello() {
  const auto reply = wait_for(send_hello());
  if (reply.type != MsgType::kHelloReply)
    throw ProtocolError(reply.error.code,
                        "AmClient: HELLO failed: " + reply.error.message);
  return reply.hello;
}

AmClient::Reply AmClient::query(const std::vector<std::uint16_t>& digits,
                                std::uint32_t k, std::uint32_t deadline_us) {
  return wait_for(send_query(digits, k, deadline_us));
}

AmClient::Reply AmClient::store(const std::vector<std::uint16_t>& digits) {
  return wait_for(send_store(digits));
}

AmClient::Reply AmClient::store_batch(
    const std::vector<std::uint16_t>& digits, std::uint32_t digits_per_row) {
  return wait_for(send_store_batch(digits, digits_per_row));
}

AmClient::Reply AmClient::clear() {
  const auto id = next_id();
  const auto frame = encode_clear(id);
  write_all(frame.data(), frame.size());
  return wait_for(id);
}

StatsReply AmClient::stats() {
  const auto reply = wait_for(send_stats());
  if (reply.type != MsgType::kStatsReply)
    throw ProtocolError(reply.error.code,
                        "AmClient: STATS failed: " + reply.error.message);
  return reply.stats;
}

MetricsReply AmClient::metrics(MetricsFormat format) {
  const auto reply = wait_for(send_metrics(format));
  if (reply.type != MsgType::kMetricsReply)
    throw ProtocolError(reply.error.code,
                        "AmClient: METRICS failed: " + reply.error.message);
  return reply.metrics;
}

}  // namespace tdam::net
