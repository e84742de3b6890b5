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
#include <future>
#include <mutex>
#include <optional>
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

// Closeable MPSC handoff between the I/O, submit, and completion threads.
// push() returns false once closed; pop() blocks and returns nullopt only
// when closed AND drained — the consumer's exit condition, which is what
// makes shutdown drain instead of drop.
template <typename T>
class TaskQueue {
 public:
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

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

    // Write side — producers are the submit/completion/I-O threads.
    std::mutex out_mutex;
    std::deque<OutFrame> outbox;
    std::size_t out_front_off = 0;      // bytes of outbox.front() written
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

  struct Request {
    std::shared_ptr<Connection> conn;
    MsgType type = MsgType::kHello;
    std::uint64_t request_id = 0;
    QueryRequest query;            // kQuery only
    StoreRequest store;            // kStore only
    StoreBatchRequest store_batch; // kStoreBatch only
    MetricsRequest metrics;        // kMetrics only
    // kQuery with tracing on: the wire-side span seed.  enqueue_ns is the
    // frame-receipt instant; io_recv/decode are stamped by the I/O thread,
    // submit_queue by the submit thread just before AmServer::submit.
    obs::SpanRecord seed;
  };

  struct Completion {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    std::future<runtime::ServedResult> future;
  };

  // --- members ------------------------------------------------------------

  runtime::AmServer& am;
  TcpServerOptions opts;
  int bound_port = 0;
  int listen_fd = -1;

  std::atomic<bool> stopping{false};  // phase 1: no new reads/accepts
  std::atomic<bool> io_stop{false};   // phase 2: loops close and exit
  bool stopped = false;               // stop() ran to completion
  std::mutex stop_mutex;              // serializes stop()

  std::vector<std::unique_ptr<IoThread>> io;
  std::atomic<std::uint64_t> next_io = 0;  // round-robin accept target

  TaskQueue<Request> requests;
  TaskQueue<Completion> completions;
  std::thread submit_thread;
  std::thread completion_thread;

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
      : am(server), opts(std::move(options)) {
    validate_options();
    register_metrics();
    open_listener();
    try {
      start_threads();
    } catch (...) {
      ::close(listen_fd);
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
    for (std::size_t i = 0; i < io.size(); ++i)
      io[i]->thread = std::thread([this, i] { io_loop(*io[i], i == 0); });
    submit_thread = std::thread([this] { submit_loop(); });
    completion_thread = std::thread([this] { completion_loop(); });
  }

  // --- cross-thread wakeup ------------------------------------------------

  void wake(IoThread& t) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(t.event_fd, &one, sizeof one);
  }

  // Append encoded reply bytes to the connection and arm its I/O loop for
  // writing.  Safe from any thread; silently drops if the peer is gone.
  void send_frame(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes) {
    OutFrame frame;
    frame.bytes = std::move(bytes);
    send_out_frame(conn, std::move(frame));
  }

  // Wire-traced variant: the span rides with the frame and is finished
  // (io_send stamped) and recorded when the last byte reaches the kernel.
  void send_frame(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes,
                  const obs::SpanRecord& span) {
    OutFrame frame;
    frame.bytes = std::move(bytes);
    frame.has_span = true;
    frame.span = span;
    send_out_frame(conn, std::move(frame));
  }

  // `hang_up` marks the connection closing together with queueing its
  // final frame, under the outbox lock handle_write checks `closing` under,
  // so the I/O thread cannot hang up before that frame is written.
  void send_out_frame(const std::shared_ptr<Connection>& conn, OutFrame frame,
                      bool hang_up = false) {
    if (conn->closed.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex);
      conn->out_bytes.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
      conn->outbox.push_back(std::move(frame));
      if (hang_up) conn->closing = true;
    }
    frames_out->add(1.0);
    IoThread& t = *conn->io;
    {
      std::lock_guard<std::mutex> lock(t.inbox_mutex);
      t.inbox_kick.push_back(conn);
    }
    wake(t);
  }

  // ERROR reply + counters; the caller decides whether the stream can
  // continue (kMalformedFrame payloads can; a lost frame boundary cannot).
  void protocol_error(const std::shared_ptr<Connection>& conn,
                      std::uint64_t request_id, WireCode code,
                      const std::string& message) {
    protocol_errors_total->add(1.0);
    if (const auto it =
            protocol_errors_by_code.find(static_cast<std::uint8_t>(code));
        it != protocol_errors_by_code.end())
      it->second->add(1.0);
    OutFrame frame;
    frame.bytes = encode_error(request_id, {code, message});
    // Hang up once this final reply flushes.
    send_out_frame(conn, std::move(frame),
                   ++conn->protocol_errors >= opts.max_protocol_errors);
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
        // Phase 1: stop accepting and stop reading; keep writing.
        reads_enabled = false;
        if (listener_open) {
          ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listener_open = false;
        }
        for (auto& [fd, conn] : t.conns) update_interest(t, *conn, false);
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
        if (flags & EPOLLOUT) handle_write(t, conn);
      }

      if (io_stop.load(std::memory_order_acquire)) break;
    }
    // Phase 2: close whatever is left.
    for (auto& [fd, conn] : t.conns) {
      conn->closed.store(true, std::memory_order_release);
      ::close(conn->fd);
      connections_gauge->add(-1.0);
      open_connections.fetch_sub(1, std::memory_order_relaxed);
    }
    t.conns.clear();
    if (listener_open) ::close(listen_fd);
    ::close(t.event_fd);
    ::close(t.epoll_fd);
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
    for (auto& conn : kicked) {
      if (conn->closed.load(std::memory_order_relaxed)) continue;
      if (t.conns.find(conn->fd) == t.conns.end()) continue;
      if (!conn->want_write) {
        conn->want_write = true;
        update_interest(t, *conn, reads_enabled);
      }
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

  void dispatch_frame(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header, const std::uint8_t* payload,
                      std::size_t size, std::int64_t recv_ns) {
    Request request;
    request.conn = conn;
    request.type = header.type;
    request.request_id = header.request_id;
    try {
      switch (header.type) {
        case MsgType::kHello:
        case MsgType::kClear:
        case MsgType::kStats:
          if (size != 0)
            throw ProtocolError(WireCode::kMalformedFrame,
                                "request carries an unexpected payload");
          break;
        case MsgType::kQuery: {
          const bool traced = am.recorder().enabled();
          if (traced) {
            request.seed.enqueue_ns = recv_ns;
            request.seed.io_recv_ns = obs::steady_now_ns() - recv_ns;
          }
          request.query = decode_query(payload, size);
          if (traced)
            request.seed.decode_ns = obs::steady_now_ns() - recv_ns;
          break;
        }
        case MsgType::kMetrics:
          request.metrics = decode_metrics(payload, size);
          break;
        case MsgType::kStore:
          request.store = decode_store(payload, size);
          break;
        case MsgType::kStoreBatch:
          request.store_batch = decode_store_batch(payload, size);
          break;
        default:
          throw ProtocolError(
              WireCode::kUnknownType,
              "unexpected message type " +
                  std::to_string(static_cast<int>(header.type)));
      }
    } catch (const ProtocolError& e) {
      protocol_error(conn, header.request_id, e.code, e.what());
      return;  // connection survives a bad payload
    }
    if (!requests.push(std::move(request)))
      protocol_error(conn, header.request_id, WireCode::kRejected,
                     "server shutting down");
  }

  void handle_write(IoThread& t, const std::shared_ptr<Connection>& conn) {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outbox.empty()) {
      const auto& front = conn->outbox.front();
      const std::size_t left = front.bytes.size() - conn->out_front_off;
      const ssize_t n =
          ::send(conn->fd, front.bytes.data() + conn->out_front_off, left,
                 MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // stay armed
        if (errno == EINTR) continue;
        close_conn(t, conn);
        return;
      }
      bytes_out->add(static_cast<double>(n));
      conn->out_bytes.fetch_sub(static_cast<std::size_t>(n),
                                std::memory_order_relaxed);
      conn->out_front_off += static_cast<std::size_t>(n);
      if (conn->out_front_off < front.bytes.size())
        return;  // kernel buffer full
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
      conn->outbox.pop_front();
      conn->out_front_off = 0;
    }
    // Flushed: drop write interest; a connection marked closing is done.
    conn->want_write = false;
    if (conn->closing) {
      close_conn(t, conn);
      return;
    }
    update_interest(t, *conn, !stopping.load(std::memory_order_relaxed));
  }

  // --- submit / completion threads ---------------------------------------

  void submit_loop() {
    while (auto request = requests.pop()) handle_request(*request);
  }

  void handle_request(Request& request) {
    switch (request.type) {
      case MsgType::kHello: {
        HelloReply reply;
        reply.stages = static_cast<std::uint32_t>(am.index().stages());
        reply.levels = static_cast<std::uint32_t>(am.index().levels());
        reply.max_frame_bytes =
            static_cast<std::uint32_t>(opts.max_frame_bytes);
        reply.generation = am.generation();
        reply.backend = am.index().backend_name();
        send_frame(request.conn, encode_hello_reply(request.request_id, reply));
        return;
      }
      case MsgType::kQuery: {
        std::vector<int> digits(request.query.digits.begin(),
                                request.query.digits.end());
        const auto deadline =
            request.query.deadline_us > 0
                ? std::chrono::steady_clock::now() +
                      std::chrono::microseconds(request.query.deadline_us)
                : runtime::AmServer::kNoDeadline;
        try {
          // submit_queue: time spent in the decoded-request queue between
          // the I/O thread and this submit thread.
          if (request.seed.traced())
            request.seed.submit_queue_ns =
                obs::steady_now_ns() - request.seed.enqueue_ns;
          auto future = am.submit(digits, static_cast<int>(request.query.k),
                                  deadline, request.seed);
          completions.push(Completion{std::move(request.conn),
                                      request.request_id,
                                      std::move(future)});
        } catch (const std::invalid_argument& e) {
          protocol_error(request.conn, request.request_id,
                         WireCode::kInvalidArgument, e.what());
        }
        return;
      }
      case MsgType::kStore: {
        std::vector<int> digits(request.store.digits.begin(),
                                request.store.digits.end());
        try {
          StoreReply reply;
          reply.row = static_cast<std::int32_t>(am.store(digits));
          reply.generation = am.generation();
          send_frame(request.conn,
                     encode_store_reply(request.request_id, reply));
        } catch (const std::invalid_argument& e) {
          protocol_error(request.conn, request.request_id,
                         WireCode::kInvalidArgument, e.what());
        }
        return;
      }
      case MsgType::kStoreBatch: {
        const auto& batch = request.store_batch;
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
          reply.generation = am.generation();
          send_frame(request.conn,
                     encode_store_batch_reply(request.request_id, reply));
        } catch (const std::invalid_argument& e) {
          // Rows before the bad one are already stored; the error names the
          // offending row so the client can account for the partial write.
          protocol_error(request.conn, request.request_id,
                         WireCode::kInvalidArgument,
                         "store_batch row " + std::to_string(reply.rows) +
                             ": " + e.what());
        }
        return;
      }
      case MsgType::kClear: {
        am.clear();
        send_frame(request.conn,
                   encode_clear_reply(request.request_id, {am.generation()}));
        return;
      }
      case MsgType::kStats: {
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
        send_frame(request.conn, encode_stats_reply(request.request_id, reply));
        return;
      }
      case MsgType::kMetrics: {
        MetricsReply reply;
        reply.format = request.metrics.format;
        std::ostringstream out;
        switch (request.metrics.format) {
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
        send_frame(request.conn,
                   encode_metrics_reply(request.request_id, reply));
        return;
      }
      default:
        // dispatch_frame only forwards the seven request types.
        protocol_error(request.conn, request.request_id,
                       WireCode::kUnknownType, "unroutable request");
        return;
    }
  }

  void completion_loop() {
    const core::DigitMetric metric = am.index().metric();
    while (auto completion = completions.pop()) {
      QueryReply reply;
      reply.metric = metric;
      std::uint64_t trace_id = 0;
      obs::SpanRecord span;
      try {
        auto served = completion->future.get();
        reply.code = to_wire_code(served.status);
        reply.generation = served.generation;
        trace_id = served.trace_id;
        span = served.span;
        if (served.status == runtime::QueryStatus::kOk)
          reply.entries = std::move(served.result.entries);
      } catch (const std::exception& e) {
        protocol_error(completion->conn, completion->request_id,
                       WireCode::kInternal, e.what());
        continue;
      }
      // completion_wait: fulfillment to this thread picking the future up
      // (FIFO head-of-line wait included — that is the point of the stage).
      const bool wire_traced = span.traced() && span.wire();
      if (wire_traced)
        span.completion_wait_ns = obs::steady_now_ns() - span.enqueue_ns;
      auto bytes = encode_query_reply(completion->request_id, trace_id, reply);
      if (wire_traced) {
        span.encode_ns = obs::steady_now_ns() - span.enqueue_ns;
        send_frame(completion->conn, std::move(bytes), span);
      } else {
        send_frame(completion->conn, std::move(bytes));
      }
    }
  }

  // --- shutdown -----------------------------------------------------------

  void stop() {
    std::lock_guard<std::mutex> lock(stop_mutex);
    if (stopped) return;
    // Phase 1: listener closes, reads stop (I/O loops observe `stopping`).
    stopping.store(true, std::memory_order_release);
    for (auto& t : io) wake(*t);
    // Drain every decoded request into the engine…
    requests.close();
    if (submit_thread.joinable()) submit_thread.join();
    // …then every in-flight future into reply bytes.
    completions.close();
    if (completion_thread.joinable()) completion_thread.join();
    // Flush outboxes (the I/O loops are still writing), bounded.
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
    // Phase 2: close everything and exit the loops.
    io_stop.store(true, std::memory_order_release);
    for (auto& t : io) wake(*t);
    for (auto& t : io)
      if (t->thread.joinable()) t->thread.join();
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
