#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/export.h"

namespace tdam::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("AmTcpServer: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

struct AmTcpServer::Impl {
  // --- connection state ---------------------------------------------------

  struct IoThread;

  // One frame queued for writing.  A wire-traced QUERY reply carries its
  // span here: the io_send stamp only exists once the frame's last byte
  // reaches the kernel, so the span is finished — and recorded — at that
  // moment, by the I/O thread.  Frames dropped by a dying connection lose
  // their span (the client never saw the reply either).
  struct OutFrame {
    std::vector<std::uint8_t> bytes;
    bool has_span = false;
    obs::SpanRecord span;
  };

  struct Connection {
    int fd = -1;
    IoThread* io = nullptr;  // owning epoll loop

    // Read side — touched only by the owning I/O thread.
    std::vector<std::uint8_t> in;
    std::size_t in_consumed = 0;
    std::size_t discard_remaining = 0;  // oversized payload being skipped
    int protocol_errors = 0;            // connection-scoped error counter
    bool closing = false;               // hang up once the outbox flushes
    bool want_write = false;            // EPOLLOUT currently armed

    // Write side — producers (I/O threads, query callbacks) only append to
    // `outbox`; the owning I/O thread moves it to `sending` and writes from
    // there without the lock, so a producer never waits on a send.
    std::mutex out_mutex;
    std::deque<OutFrame> outbox;
    std::deque<OutFrame> sending;       // owning I/O thread only
    std::size_t out_front_off = 0;      // bytes of sending.front() written
    std::atomic<std::size_t> out_bytes{0};
    std::atomic<bool> closed{false};
  };

  struct IoThread {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Cross-thread handoff into this loop: connections to register and
    // connections with fresh outbox bytes (write interest).
    std::mutex inbox_mutex;
    std::vector<std::shared_ptr<Connection>> inbox_new;
    std::vector<std::shared_ptr<Connection>> inbox_kick;
    // Live connections, owned by this loop.
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
  };

  // --- members ------------------------------------------------------------

  runtime::AmServer& am;
  TcpServerOptions opts;
  int bound_port = 0;
  int listen_fd = -1;

  std::atomic<bool> stopping{false};  // stop() step 1: no reads/accepts
  std::atomic<bool> io_stop{false};   // stop() step 4: loops close, exit
  bool stopped = false;               // stop() ran to completion
  std::mutex stop_mutex;              // serializes stop()

  std::vector<std::unique_ptr<IoThread>> io;
  std::atomic<std::uint64_t> next_io = 0;  // round-robin accept target
  core::DigitMetric metric;                // stamped on every QUERY_REPLY

  // Shutdown bookkeeping: I/O loops that still read, and queries handed to
  // AmServer whose callback has not finished yet.  stop() waits for both
  // to reach zero before it tears the loops down.
  std::mutex drain_mutex;
  std::condition_variable drain_cv;
  int loops_reading = 0;
  int queries_in_flight = 0;

  // For the shutdown flush scan (I/O threads own the live maps).
  std::mutex all_conns_mutex;
  std::vector<std::weak_ptr<Connection>> all_conns;
  std::atomic<int> open_connections{0};

  // Instruments live in the AmServer's registry so the existing exporters
  // scrape them alongside the serving metrics.
  obs::Gauge* connections_gauge = nullptr;
  obs::Counter* connections_total = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* frames_in = nullptr;
  obs::Counter* frames_out = nullptr;
  obs::Counter* protocol_errors_total = nullptr;
  std::unordered_map<std::uint8_t, obs::Counter*> protocol_errors_by_code;

  Impl(runtime::AmServer& server, TcpServerOptions options)
      : am(server), opts(std::move(options)), metric(am.index().metric()) {
    validate_options();
    register_metrics();
    open_listener();
    try {
      start_threads();
    } catch (...) {
      ::close(listen_fd);
      close_loop_fds();
      throw;
    }
  }

  ~Impl() { stop(); }

  void validate_options() const {
    if (opts.max_frame_bytes <= 0)
      throw std::invalid_argument(
          "AmTcpServer: max_frame_bytes must be positive (got " +
          std::to_string(opts.max_frame_bytes) + ")");
    if (opts.io_threads < 1)
      throw std::invalid_argument(
          "AmTcpServer: io_threads must be >= 1 (got " +
          std::to_string(opts.io_threads) + ")");
    if (opts.max_protocol_errors < 1)
      throw std::invalid_argument(
          "AmTcpServer: max_protocol_errors must be >= 1 (got " +
          std::to_string(opts.max_protocol_errors) + ")");
    if (opts.drain_timeout < 0.0)
      throw std::invalid_argument(
          "AmTcpServer: drain_timeout must be >= 0");
    if (opts.port < 0 || opts.port > 65535)
      throw std::invalid_argument("AmTcpServer: port must be in [0, 65535] (got " +
                                  std::to_string(opts.port) + ")");
  }

  void register_metrics() {
    auto& reg = am.metrics().registry();
    connections_gauge =
        &reg.gauge("tdam_net_connections", "Open client TCP connections");
    connections_total = &reg.counter("tdam_net_connections_total",
                                     "Client TCP connections accepted");
    bytes_in = &reg.counter("tdam_net_bytes_in_total",
                            "Bytes read from client sockets");
    bytes_out = &reg.counter("tdam_net_bytes_out_total",
                             "Bytes written to client sockets");
    frames_in = &reg.counter("tdam_net_frames_in_total",
                             "Frames decoded from client sockets");
    frames_out = &reg.counter("tdam_net_frames_out_total",
                              "Reply frames enqueued to client sockets");
    protocol_errors_total = &reg.counter("tdam_net_protocol_errors_total",
                                         "ERROR frames sent, all codes");
    // Pre-create the per-code family so a scrape shows explicit zeros.
    for (const auto code :
         {WireCode::kMalformedFrame, WireCode::kOversizedFrame,
          WireCode::kUnsupportedVersion, WireCode::kUnknownType,
          WireCode::kInvalidArgument, WireCode::kInternal}) {
      protocol_errors_by_code[static_cast<std::uint8_t>(code)] = &reg.counter(
          "tdam_net_protocol_errors_by_code_total",
          "ERROR frames sent, by wire code",
          {{"code", wire_code_name(code)}});
    }
  }

  void open_listener() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
    if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd);
      throw std::invalid_argument("AmTcpServer: bad bind address '" +
                                  opts.host + "'");
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0 ||
        ::listen(listen_fd, 128) < 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("bind/listen on " + opts.host + ":" +
                  std::to_string(opts.port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("getsockname");
    }
    bound_port = static_cast<int>(ntohs(bound.sin_port));
  }

  void start_threads() {
    io.reserve(static_cast<std::size_t>(opts.io_threads));
    for (int i = 0; i < opts.io_threads; ++i) {
      auto t = std::make_unique<IoThread>();
      t->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (t->epoll_fd < 0) throw_errno("epoll_create1");
      t->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (t->event_fd < 0) throw_errno("eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = t->event_fd;
      if (::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->event_fd, &ev) < 0)
        throw_errno("epoll_ctl(event_fd)");
      if (i == 0) {
        ev.events = EPOLLIN;
        ev.data.fd = listen_fd;
        if (::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) < 0)
          throw_errno("epoll_ctl(listen_fd)");
      }
      io.push_back(std::move(t));
    }
    loops_reading = opts.io_threads;
    for (std::size_t i = 0; i < io.size(); ++i)
      io[i]->thread = std::thread([this, i] { io_loop(*io[i], i == 0); });
  }

  void close_loop_fds() {
    for (auto& t : io) {
      if (t->event_fd >= 0) ::close(t->event_fd);
      if (t->epoll_fd >= 0) ::close(t->epoll_fd);
      t->event_fd = t->epoll_fd = -1;
    }
  }

  // --- cross-thread wakeup ------------------------------------------------

  void wake(IoThread& t) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(t.event_fd, &one, sizeof one);
  }

  // Append encoded reply bytes to the connection and hand it to its I/O
  // loop for writing.  Safe from any thread; silently drops if the peer is
  // gone.  Only an append to an empty inbox wakes the loop (a non-empty one
  // has a wakeup pending), so replies that outpace the loop share one.  A
  // wire-traced QUERY reply's span rides with the frame and is finished
  // (io_send stamped) and recorded when the last byte reaches the kernel.
  void send_frame(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes,
                  const obs::SpanRecord* span = nullptr) {
    if (conn->closed.load(std::memory_order_acquire)) return;
    OutFrame frame;
    frame.bytes = std::move(bytes);
    if (span) {
      frame.has_span = true;
      frame.span = *span;
    }
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex);
      conn->out_bytes.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
      conn->outbox.push_back(std::move(frame));
    }
    frames_out->add(1.0);
    IoThread& t = *conn->io;
    bool first;
    {
      std::lock_guard<std::mutex> lock(t.inbox_mutex);
      first = t.inbox_kick.empty();
      t.inbox_kick.push_back(conn);
    }
    if (first) wake(t);
  }

  // ERROR reply + counters.  Safe from any thread.
  void send_error(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, WireCode code,
                  const std::string& message) {
    protocol_errors_total->add(1.0);
    if (const auto it =
            protocol_errors_by_code.find(static_cast<std::uint8_t>(code));
        it != protocol_errors_by_code.end())
      it->second->add(1.0);
    send_frame(conn, encode_error(request_id, {code, message}));
  }

  // The client's fault: ERROR reply charged against the connection's error
  // budget; once the budget is spent, hang up after this reply flushes.  The
  // caller decides whether the stream can otherwise continue (kMalformedFrame
  // payloads can; a lost frame boundary cannot).  Owning I/O thread only —
  // it alone touches the read-side fields.
  void protocol_error(const std::shared_ptr<Connection>& conn,
                      std::uint64_t request_id, WireCode code,
                      const std::string& message) {
    send_error(conn, request_id, code, message);
    if (++conn->protocol_errors >= opts.max_protocol_errors)
      conn->closing = true;
  }

  // --- I/O loop -----------------------------------------------------------

  void io_loop(IoThread& t, bool acceptor) {
    bool listener_open = acceptor;
    bool reads_enabled = true;
    std::vector<epoll_event> events(64);
    for (;;) {
      const int n = ::epoll_wait(t.epoll_fd, events.data(),
                                 static_cast<int>(events.size()), 50);
      if (n < 0 && errno != EINTR) break;

      if (stopping.load(std::memory_order_acquire) && reads_enabled) {
        // stop() step 1: stop accepting and stop reading; keep writing.
        reads_enabled = false;
        if (listener_open) {
          ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listener_open = false;
        }
        for (auto& [fd, conn] : t.conns) update_interest(t, *conn, false);
        count_down(loops_reading);
      }

      for (int i = 0; i < n; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        const auto flags = events[static_cast<std::size_t>(i)].events;
        if (fd == t.event_fd) {
          std::uint64_t drained;
          while (::read(t.event_fd, &drained, sizeof drained) > 0) {
          }
          drain_inbox(t, reads_enabled);
          continue;
        }
        if (acceptor && fd == listen_fd) {
          if (listener_open && reads_enabled) accept_ready();
          continue;
        }
        const auto it = t.conns.find(fd);
        if (it == t.conns.end()) continue;  // closed earlier in this batch
        auto conn = it->second;             // keep alive across handlers
        if (flags & (EPOLLHUP | EPOLLERR)) {
          close_conn(t, conn);
          continue;
        }
        if ((flags & EPOLLIN) && reads_enabled && !conn->closing)
          handle_read(t, conn);
        if (conn->closed.load(std::memory_order_relaxed)) continue;
        if (flags & EPOLLOUT) handle_write(t, conn, reads_enabled);
      }

      if (io_stop.load(std::memory_order_acquire)) break;
    }
    if (reads_enabled) count_down(loops_reading);  // epoll failed early
    // stop() step 4: close whatever is left.  stop() closes this loop's
    // eventfd and epoll fd after the join, so no late wake() can hit a
    // closed (or reused) descriptor.
    for (auto& [fd, conn] : t.conns) {
      conn->closed.store(true, std::memory_order_release);
      ::close(conn->fd);
      connections_gauge->add(-1.0);
      open_connections.fetch_sub(1, std::memory_order_relaxed);
    }
    t.conns.clear();
    if (listener_open) ::close(listen_fd);
  }

  // Decrements one of stop()'s drain counters.  Notifies under the lock:
  // once a query callback's count reaches zero, stop() may destroy *this.
  void count_down(int& counter) {
    std::lock_guard<std::mutex> lock(drain_mutex);
    --counter;
    drain_cv.notify_all();
  }

  void drain_inbox(IoThread& t, bool reads_enabled) {
    std::vector<std::shared_ptr<Connection>> fresh, kicked;
    {
      std::lock_guard<std::mutex> lock(t.inbox_mutex);
      fresh.swap(t.inbox_new);
      kicked.swap(t.inbox_kick);
    }
    for (auto& conn : fresh) {
      epoll_event ev{};
      ev.events = reads_enabled ? EPOLLIN : 0u;
      ev.data.fd = conn->fd;
      if (::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
        conn->closed.store(true, std::memory_order_release);
        ::close(conn->fd);
        connections_gauge->add(-1.0);
        open_connections.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      t.conns.emplace(conn->fd, conn);
    }
    // Write eagerly; EPOLLOUT is armed only if the socket buffer fills.
    for (auto& conn : kicked) {
      if (conn->closed.load(std::memory_order_relaxed)) continue;
      if (t.conns.find(conn->fd) == t.conns.end()) continue;
      handle_write(t, conn, reads_enabled);
    }
  }

  void update_interest(IoThread& t, Connection& conn, bool reads_enabled) {
    epoll_event ev{};
    ev.events = ((reads_enabled && !conn.closing) ? EPOLLIN : 0u) |
                (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(t.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void accept_ready() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (or transient error): wait for epoll
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      IoThread& target =
          *io[next_io.fetch_add(1, std::memory_order_relaxed) % io.size()];
      conn->io = &target;
      connections_total->add(1.0);
      connections_gauge->add(1.0);
      open_connections.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(all_conns_mutex);
        all_conns.push_back(conn);
      }
      {
        std::lock_guard<std::mutex> lock(target.inbox_mutex);
        target.inbox_new.push_back(conn);
      }
      wake(target);
    }
  }

  void close_conn(IoThread& t, const std::shared_ptr<Connection>& conn) {
    if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
    ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    t.conns.erase(conn->fd);
    connections_gauge->add(-1.0);
    open_connections.fetch_sub(1, std::memory_order_relaxed);
  }

  void handle_read(IoThread& t, const std::shared_ptr<Connection>& conn) {
    // Wire-trace base: the instant this read burst started.  Every frame
    // parsed out of it anchors its span here, so io_recv covers the read
    // syscalls and buffer splice that delivered the frame.
    const std::int64_t recv_ns = obs::steady_now_ns();
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(conn->fd, buf, sizeof buf);
      if (n > 0) {
        bytes_in->add(static_cast<double>(n));
        conn->in.insert(conn->in.end(), buf, buf + n);
        if (n < static_cast<ssize_t>(sizeof buf)) break;
        continue;
      }
      if (n == 0) {  // peer hung up
        close_conn(t, conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(t, conn);
      return;
    }
    parse_frames(t, conn, recv_ns);
  }

  void parse_frames(IoThread& t, const std::shared_ptr<Connection>& conn,
                    std::int64_t recv_ns) {
    auto& in = conn->in;
    for (;;) {
      if (conn->discard_remaining > 0) {
        const std::size_t avail = in.size() - conn->in_consumed;
        const std::size_t take = std::min(avail, conn->discard_remaining);
        conn->in_consumed += take;
        conn->discard_remaining -= take;
        if (conn->discard_remaining > 0) break;  // need more bytes to skip
        continue;
      }
      const std::size_t avail = in.size() - conn->in_consumed;
      if (avail < kHeaderBytes) break;
      FrameHeader header;
      try {
        header = decode_header(in.data() + conn->in_consumed, kHeaderBytes);
      } catch (const ProtocolError& e) {
        // Framing itself is lost (bad magic / bad version): answer, then
        // hang up — there is no way to find the next frame boundary.
        protocol_error(conn, 0, e.code, e.what());
        conn->closing = true;
        update_interest(t, *conn, false);
        return;
      }
      if (header.payload_len >
          static_cast<std::uint32_t>(opts.max_frame_bytes)) {
        protocol_error(conn, header.request_id, WireCode::kOversizedFrame,
                       "payload of " + std::to_string(header.payload_len) +
                           " bytes exceeds the server cap of " +
                           std::to_string(opts.max_frame_bytes));
        conn->in_consumed += kHeaderBytes;
        conn->discard_remaining = header.payload_len;
        if (conn->closing) {  // error budget exhausted
          update_interest(t, *conn, false);
          return;
        }
        continue;
      }
      if (avail < kHeaderBytes + header.payload_len) break;
      const std::uint8_t* payload =
          in.data() + conn->in_consumed + kHeaderBytes;
      conn->in_consumed += kHeaderBytes + header.payload_len;
      frames_in->add(1.0);
      dispatch_frame(conn, header, payload, header.payload_len, recv_ns);
      if (conn->closing) {
        update_interest(t, *conn, false);
        return;
      }
    }
    // Compact the rolling buffer once everything parseable is consumed.
    if (conn->in_consumed == in.size()) {
      in.clear();
      conn->in_consumed = 0;
    } else if (conn->in_consumed > (1u << 16)) {
      in.erase(in.begin(),
               in.begin() + static_cast<std::ptrdiff_t>(conn->in_consumed));
      conn->in_consumed = 0;
    }
  }

  // Answers one decoded frame on the owning I/O thread: HELLO, STATS,
  // METRICS, STORE, STORE_BATCH and CLEAR inline, a QUERY by handing it to
  // AmServer with a callback that sends the reply.
  void dispatch_frame(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header, const std::uint8_t* payload,
                      std::size_t size, std::int64_t recv_ns) {
    const std::uint64_t id = header.request_id;
    try {
      switch (header.type) {
        case MsgType::kHello:
          expect_no_payload(size);
          send_frame(conn, encode_hello_reply(id, hello_reply()));
          return;
        case MsgType::kQuery:
          submit_query(conn, id, payload, size, recv_ns);
          return;
        case MsgType::kStore: {
          const auto request = decode_store(payload, size);
          const std::vector<int> digits(request.digits.begin(),
                                        request.digits.end());
          StoreReply reply;
          reply.row = static_cast<std::int32_t>(am.store(digits));
          reply.generation = am.generation();
          send_frame(conn, encode_store_reply(id, reply));
          return;
        }
        case MsgType::kStoreBatch:
          store_batch(conn, id, decode_store_batch(payload, size));
          return;
        case MsgType::kClear:
          expect_no_payload(size);
          am.clear();
          send_frame(conn, encode_clear_reply(id, {am.generation()}));
          return;
        case MsgType::kStats:
          expect_no_payload(size);
          send_frame(conn, encode_stats_reply(id, stats_reply()));
          return;
        case MsgType::kMetrics: {
          const auto request = decode_metrics(payload, size);
          send_frame(conn, encode_metrics_reply(id, metrics_reply(request)));
          return;
        }
        default:
          throw ProtocolError(
              WireCode::kUnknownType,
              "unexpected message type " +
                  std::to_string(static_cast<int>(header.type)));
      }
    } catch (const ProtocolError& e) {
      protocol_error(conn, id, e.code, e.what());  // connection survives
    } catch (const std::invalid_argument& e) {
      protocol_error(conn, id, WireCode::kInvalidArgument, e.what());
    }
  }

  static void expect_no_payload(std::size_t size) {
    if (size != 0)
      throw ProtocolError(WireCode::kMalformedFrame,
                          "request carries an unexpected payload");
  }

  void handle_write(IoThread& t, const std::shared_ptr<Connection>& conn,
                    bool reads_enabled) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex);
      for (auto& frame : conn->outbox)
        conn->sending.push_back(std::move(frame));
      conn->outbox.clear();
    }
    while (!conn->sending.empty()) {
      const auto& front = conn->sending.front();
      const std::size_t left = front.bytes.size() - conn->out_front_off;
      const ssize_t n =
          ::send(conn->fd, front.bytes.data() + conn->out_front_off, left,
                 MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          close_conn(t, conn);
          return;
        }
        if (!conn->want_write) {  // buffer full: resume on EPOLLOUT
          conn->want_write = true;
          update_interest(t, *conn, reads_enabled);
        }
        return;
      }
      bytes_out->add(static_cast<double>(n));
      conn->out_bytes.fetch_sub(static_cast<std::size_t>(n),
                                std::memory_order_relaxed);
      conn->out_front_off += static_cast<std::size_t>(n);
      if (conn->out_front_off < front.bytes.size()) continue;
      // The frame's last byte reached the kernel: the wire span is
      // complete.  Record it now — this is the deferred recording the
      // serving layers skipped for span.wire() spans, so /traces shows one
      // span covering io_recv through io_send.
      if (front.has_span) {
        obs::SpanRecord span = front.span;
        span.io_send_ns = obs::steady_now_ns() - span.enqueue_ns;
        am.recorder().record(span);
        am.slow_log().maybe_capture(span);
      }
      conn->sending.pop_front();
      conn->out_front_off = 0;
    }
    // Flushed: a connection marked closing is done.
    if (conn->closing) {
      close_conn(t, conn);
      return;
    }
    if (conn->want_write) {
      conn->want_write = false;
      update_interest(t, *conn, reads_enabled);
    }
  }

  // --- request handlers (owning I/O thread) -------------------------------

  void submit_query(const std::shared_ptr<Connection>& conn,
                    std::uint64_t request_id, const std::uint8_t* payload,
                    std::size_t size, std::int64_t recv_ns) {
    obs::SpanRecord seed;
    const bool traced = am.recorder().enabled();
    if (traced) {
      seed.enqueue_ns = recv_ns;
      seed.io_recv_ns = obs::steady_now_ns() - recv_ns;
    }
    const auto query = decode_query(payload, size);
    if (traced) seed.decode_ns = obs::steady_now_ns() - recv_ns;
    const std::vector<int> digits(query.digits.begin(), query.digits.end());
    const auto deadline =
        query.deadline_us > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::microseconds(query.deadline_us)
            : runtime::AmServer::kNoDeadline;
    {
      std::lock_guard<std::mutex> lock(drain_mutex);
      ++queries_in_flight;
    }
    // submit_queue: the instant this thread hands the query to AmServer.
    if (traced) seed.submit_queue_ns = obs::steady_now_ns() - recv_ns;
    try {
      am.submit(digits, static_cast<int>(query.k), deadline, seed,
                [this, conn, request_id](runtime::ServedResult served,
                                         std::exception_ptr error) {
                  reply_query(conn, request_id, std::move(served), error);
                  count_down(queries_in_flight);
                });
    } catch (...) {
      count_down(queries_in_flight);  // validation threw: no callback
      throw;
    }
  }

  // A query's completion: on AmServer's dispatcher for answered, expired
  // and failed queries, inside submit_query for rejected and shed ones.
  void reply_query(const std::shared_ptr<Connection>& conn,
                   std::uint64_t request_id, runtime::ServedResult served,
                   const std::exception_ptr& error) {
    if (error) {
      // The server failed, not the client: a plain ERROR on this request,
      // never charged against the connection's protocol-error budget.
      std::string message = "engine failure";
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        message = e.what();
      } catch (...) {
      }
      send_error(conn, request_id, WireCode::kInternal, message);
      return;
    }
    QueryReply reply;
    reply.metric = metric;
    reply.code = to_wire_code(served.status);
    reply.generation = served.generation;
    if (served.status == runtime::QueryStatus::kOk)
      reply.entries = std::move(served.result.entries);
    auto bytes = encode_query_reply(request_id, served.trace_id, reply);
    auto& span = served.span;
    if (span.wire()) span.encode_ns = obs::steady_now_ns() - span.enqueue_ns;
    send_frame(conn, std::move(bytes), span.wire() ? &span : nullptr);
  }

  void store_batch(const std::shared_ptr<Connection>& conn,
                   std::uint64_t request_id, const StoreBatchRequest& batch) {
    const auto dpr = static_cast<std::size_t>(batch.digits_per_row);
    StoreBatchReply reply;
    std::vector<int> digits(dpr);
    try {
      for (std::uint32_t row = 0; row < batch.rows(); ++row) {
        const auto* src = batch.digits.data() + row * dpr;
        std::copy(src, src + dpr, digits.begin());
        const int id = am.store(digits);
        if (reply.rows == 0) reply.first_row = static_cast<std::int32_t>(id);
        ++reply.rows;
      }
    } catch (const std::invalid_argument& e) {
      // Rows before the bad one are already stored; the error names the
      // offending row so the client can account for the partial write.
      throw std::invalid_argument("store_batch row " +
                                  std::to_string(reply.rows) + ": " + e.what());
    }
    reply.generation = am.generation();
    send_frame(conn, encode_store_batch_reply(request_id, reply));
  }

  HelloReply hello_reply() const {
    HelloReply reply;
    reply.stages = static_cast<std::uint32_t>(am.index().stages());
    reply.levels = static_cast<std::uint32_t>(am.index().levels());
    reply.max_frame_bytes = static_cast<std::uint32_t>(opts.max_frame_bytes);
    reply.generation = am.generation();
    reply.backend = am.index().backend_name();
    return reply;
  }

  StatsReply stats_reply() const {
    const auto snap = am.metrics().snapshot();
    StatsReply reply;
    reply.queries = snap.queries;
    reply.rejected = snap.rejected;
    reply.shed = snap.shed;
    reply.expired = snap.expired;
    reply.rows = static_cast<std::uint64_t>(am.index().size());
    reply.generation = am.generation();
    reply.connections = static_cast<std::uint64_t>(
        open_connections.load(std::memory_order_relaxed));
    reply.frames_in = static_cast<std::uint64_t>(frames_in->value());
    reply.protocol_errors =
        static_cast<std::uint64_t>(protocol_errors_total->value());
    reply.segments = snap.segments;
    reply.delta_rows = snap.delta_rows;
    reply.compactions = snap.compactions;
    reply.qps = snap.qps;
    reply.p50_s = snap.wall_quantile(0.50);
    reply.p99_s = snap.wall_quantile(0.99);
    const auto q = [](const obs::HistogramSnapshot& h, double p) {
      return h.total() > 0 ? h.quantile(p) : 0.0;
    };
    reply.queue_wait_p50_s = q(snap.queue_wait, 0.50);
    reply.queue_wait_p99_s = q(snap.queue_wait, 0.99);
    reply.batch_wait_p50_s = q(snap.batch_wait, 0.50);
    reply.batch_wait_p99_s = q(snap.batch_wait, 0.99);
    reply.scan_p50_s = q(snap.scan, 0.50);
    reply.scan_p99_s = q(snap.scan, 0.99);
    reply.merge_p50_s = q(snap.merge, 0.50);
    reply.merge_p99_s = q(snap.merge, 0.99);
    return reply;
  }

  MetricsReply metrics_reply(const MetricsRequest& request) {
    MetricsReply reply;
    reply.format = request.format;
    std::ostringstream out;
    switch (request.format) {
      case MetricsFormat::kPrometheus:
        obs::export_prometheus(out, am.metrics().registry());
        break;
      case MetricsFormat::kJson:
        obs::export_json(out, am.metrics().registry(), &am.recorder(),
                         &am.slow_log());
        break;
      case MetricsFormat::kTraces:
        obs::export_traces_json(out, &am.recorder(), &am.slow_log());
        break;
    }
    reply.text = out.str();
    return reply;
  }

  // --- shutdown -----------------------------------------------------------

  void stop() {
    std::lock_guard<std::mutex> lock(stop_mutex);
    if (stopped) return;
    // Steps 1-2: every loop stops accepting and reading (no query can be
    // submitted after its acknowledgement), then every submitted query
    // runs its callback.  Unbounded, as the dispatcher always drains: no
    // callback may outlive *this.
    stopping.store(true, std::memory_order_release);
    for (auto& t : io) wake(*t);
    {
      std::unique_lock<std::mutex> drain_lock(drain_mutex);
      drain_cv.wait(drain_lock, [this] {
        return loops_reading == 0 && queries_in_flight == 0;
      });
    }
    // Step 3: flush outboxes (the I/O loops are still writing), bounded.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.drain_timeout));
    for (;;) {
      std::size_t pending = 0;
      {
        std::lock_guard<std::mutex> conns_lock(all_conns_mutex);
        for (const auto& weak : all_conns)
          if (const auto conn = weak.lock())
            if (!conn->closed.load(std::memory_order_relaxed))
              pending += conn->out_bytes.load(std::memory_order_relaxed);
      }
      if (pending == 0 || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Step 4: the loops close their connections and exit; only then do
    // their wakeup and epoll descriptors close.
    io_stop.store(true, std::memory_order_release);
    for (auto& t : io) wake(*t);
    for (auto& t : io)
      if (t->thread.joinable()) t->thread.join();
    close_loop_fds();
    stopped = true;
  }
};

AmTcpServer::AmTcpServer(runtime::AmServer& server, TcpServerOptions options)
    : impl_(std::make_unique<Impl>(server, std::move(options))) {}

AmTcpServer::~AmTcpServer() = default;

int AmTcpServer::port() const { return impl_->bound_port; }

const TcpServerOptions& AmTcpServer::options() const { return impl_->opts; }

int AmTcpServer::connections() const {
  return impl_->open_connections.load(std::memory_order_relaxed);
}

void AmTcpServer::stop() { impl_->stop(); }

}  // namespace tdam::net
