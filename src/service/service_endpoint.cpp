#include "service/service_endpoint.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "service/session_service.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"

namespace emutile {

namespace {

/// How long the server waits for a request to arrive in full. A client that
/// connects and never writes (or never half-closes) must not pin a
/// connection forever — that would also block ~ServiceEndpoint, which drains
/// in-flight connections.
constexpr int kRequestReadTimeoutMs = 30'000;

/// An idle persistent connection is allowed to sit longer than a one-shot
/// request read (a coordinator's poll tick may be lazy), but not forever:
/// past this it is silently closed and the client re-dials transparently.
constexpr int kPersistentIdleTimeoutMs = 4 * kRequestReadTimeoutMs;

/// Capacity of the reactor<->worker MPMC rings. A full execution ring
/// briefly queues inside the reactor; a full completion ring briefly blocks
/// a worker — neither drops a request.
constexpr std::size_t kQueueCapacity = 4096;

/// Commands get their own endpoint.requests.<CMD>/endpoint.request_us.<CMD>
/// series; anything unrecognized (including garbage) is folded into one
/// "OTHER" pair so a misbehaving client cannot mint unbounded metric names.
bool known_command(const std::string& command) {
  return command == "HELLO" || command == "PING" || command == "SUBMIT" ||
         command == "STATUS" || command == "LIST" || command == "CANCEL" ||
         command == "WAIT" || command == "SHARDREPORT" ||
         command == "CACHE" || command == "METRICS" ||
         command == "TRACESPANS" || command == "DRAIN" ||
         command == "SHUTDOWN";
}

/// Observability-plane commands are not themselves traced: the console and
/// the coordinator poll them continuously, and a tracer tracing its own
/// export only buries the spans operators care about. HELLO is a transport
/// probe, not work.
bool traced_command(const std::string& series) {
  return series != "PING" && series != "HELLO" && series != "METRICS" &&
         series != "TRACESPANS";
}

std::string status_line(const CampaignStatus& s) {
  std::ostringstream os;
  os << s.id << " " << to_string(s.state) << " " << s.sessions_done << "/"
     << s.sessions_total << " hits=" << s.cache_hits
     << " misses=" << s.cache_misses << " snapshots=" << s.snapshots
     << " replayed=" << s.replayed;
  return os.str();
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort; fails harmlessly on Unix-domain sockets.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string local_instance_id() {
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0 || host[0] == '\0')
    std::strcpy(host, "localhost");
  return std::string(host) + "-" + std::to_string(::getpid());
}

}  // namespace

/// One client connection in the reactor: its fd, the request being buffered,
/// the response being flushed, and the state-machine bookkeeping. The
/// reactor thread owns every Conn; a worker touches one only between the
/// exec-ring hand-off and the done-ring hand-back (the rings' release/acquire
/// publication orders those accesses).
struct ServiceEndpoint::Conn {
  enum class St : std::uint8_t {
    kReading,    ///< buffering the request (one-shot: until the client
                 ///< half-closes; persistent: until a full line arrives)
    kExecuting,  ///< queued for / running on a worker / in the done ring
    kParked,     ///< a WAIT whose campaign is not yet terminal
    kWriting,    ///< flushing the response
  };

  int fd = -1;
  St state = St::kReading;
  std::string request;
  std::string response;
  std::size_t write_off = 0;
  std::chrono::steady_clock::time_point read_deadline{};
  /// Set by the worker before the done-ring hand-back: true when a WAIT
  /// must park instead of completing.
  bool parked = false;
  // Persistent-connection state (the PERSIST handshake): the connection
  // outlives each exchange, requests are single lines, and responses are
  // length-framed so the client can delimit them without a half-close.
  bool persistent = false;
  /// Frame the next response as `#<bytes>\n<payload>` (every persistent
  /// exchange after the handshake ack).
  bool frame_response = false;
  /// Bytes received beyond the line being executed (a pipelining client).
  std::string pending;
  // First-execution bookkeeping, so a WAIT that parks N times still counts
  // one request and one latency sample spanning the whole wait.
  bool counted = false;
  std::string series;
  std::string wait_id;
  std::chrono::steady_clock::time_point exec_start{};
  std::uint64_t exec_start_journal_us = 0;
};

ServiceEndpoint::ServiceEndpoint(SessionService& service,
                                 std::filesystem::path socket_path,
                                 EndpointOptions options)
    : service_(service),
      socket_path_(std::move(socket_path)),
      options_(options),
      instance_id_(local_instance_id()) {
  const bool reactor = options_.mode == EndpointMode::kReactor;
  // The reactor never blocks in accept/read/write, so its sockets are
  // non-blocking from birth (accepted fds get the flag via accept4).
  const int backlog = reactor ? 512 : 16;
  listen_fd_ = listen_service_address(
      ServiceAddress::unix_socket(socket_path_), backlog, reactor);
  if (options_.tcp) {
    EMUTILE_CHECK(options_.tcp->kind == AddressKind::kTcp,
                  "EndpointOptions::tcp must be a tcp address, got "
                      << options_.tcp->to_string());
    try {
      tcp_listen_fd_ = listen_service_address(*options_.tcp, backlog, reactor);
    } catch (...) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
    tcp_address_ = bound_service_address(*options_.tcp, tcp_listen_fd_);
  }
  if (!reactor) {
    accept_thread_ = std::thread([this] { accept_loop(); });
    return;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const int err = errno;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
    EMUTILE_CHECK(false, "cannot set up reactor: " << std::strerror(err));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  if (tcp_listen_fd_ >= 0) {
    ev.data.fd = tcp_listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, tcp_listen_fd_, &ev);
  }
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  exec_queue_ = std::make_unique<MpmcQueue<Conn*>>(kQueueCapacity);
  done_queue_ = std::make_unique<MpmcQueue<Conn*>>(kQueueCapacity);
  // A campaign turning terminal is what wakes the WAITs parked on it. The
  // listener runs under the service mutex: it only records the id and
  // nudges the reactor, which re-queues the matching conns itself.
  service_.set_terminal_listener([this](const std::string& id) {
    {
      std::lock_guard<std::mutex> lock(terminal_mutex_);
      terminal_ids_.push_back(id);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  });
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  worker_threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  reactor_thread_ = std::thread([this] { reactor_loop(); });
}

ServiceEndpoint::~ServiceEndpoint() {
  // Detach first: once this returns the service never calls back into this
  // endpoint, however long its campaigns outlive it.
  if (options_.mode == EndpointMode::kReactor)
    service_.set_terminal_listener(nullptr);
  stopping_.store(true);
  if (options_.mode == EndpointMode::kReactor) {
    // Nudge the reactor so it sees the stop flag immediately, then let it
    // run the drain: in-flight executions finish and flush, readers and
    // parked waiters get a terminal ERR, every conn fd is closed.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    if (reactor_thread_.joinable()) reactor_thread_.join();
    // Workers next: the reactor drained every conn, so the exec ring is
    // empty; pop_wait observes the stop flag and exits.
    workers_stop_.store(true);
    exec_queue_->notify_all();
    done_queue_->notify_all();
    for (std::thread& t : worker_threads_) t.join();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);  // normally closed by the drain
    if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  } else {
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
    // Connection threads are detached; wait for the in-flight ones to finish
    // (they hold `this` only until they decrement the counter).
    std::unique_lock<std::mutex> lock(active_mutex_);
    active_drained_.wait(lock, [this] { return active_connections_ == 0; });
  }
  std::error_code ec;
  std::filesystem::remove(socket_path_, ec);
}

// ---- legacy thread-per-connection mode -------------------------------------

void ServiceEndpoint::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {tcp_listen_fd_, POLLIN, 0}};
    const nfds_t nfds = tcp_listen_fd_ >= 0 ? 2 : 1;
    const int ready = ::poll(pfds, nfds, 100);  // 100 ms stop-flag cadence
    if (ready <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      set_nodelay(fd);
      MetricsRegistry::global().counter("endpoint.connections").add();
      {
        // Registered before the thread exists so the destructor can never
        // observe zero while a connection is starting up.
        std::lock_guard<std::mutex> lock(active_mutex_);
        ++active_connections_;
      }
      MetricsRegistry::global().gauge("endpoint.connections_active").add();
      try {
        std::thread([this, fd] { serve_connection(fd); }).detach();
      } catch (const std::system_error&) {
        {
          std::lock_guard<std::mutex> lock(active_mutex_);
          --active_connections_;
        }
        MetricsRegistry::global().gauge("endpoint.connections_active").sub();
        ::close(fd);
      }
    }
  }
}

void ServiceEndpoint::serve_connection(int fd) {
  std::string request;
  std::string response = "ERR request read failed\n";
  if (fd_read_all(fd, request, kRequestReadTimeoutMs, &stopping_)) {
    const auto start = std::chrono::steady_clock::now();
    try {
      response = handle_request(request);
    } catch (const std::exception& e) {
      MetricsRegistry::global().counter("endpoint.errors").add();
      response = std::string("ERR ") + e.what() + "\n";
    }
    const auto elapsed_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (elapsed_us > slow_request_us_.load()) {
      std::istringstream line(request);
      std::string command;
      line >> command;
      MetricsRegistry::global().counter("endpoint.slow_requests").add();
      EMUTILE_WARN("slow request: " << command << " took "
                                    << elapsed_us / 1000 << " ms (threshold "
                                    << slow_request_us_.load() / 1000
                                    << " ms)");
    }
  } else {
    MetricsRegistry::global().counter("endpoint.read_timeouts").add();
  }
  fd_write_all(fd, response);
  ::close(fd);
  MetricsRegistry::global().gauge("endpoint.connections_active").sub();
  std::lock_guard<std::mutex> lock(active_mutex_);
  --active_connections_;
  active_drained_.notify_all();
}

// ---- reactor mode ----------------------------------------------------------

void ServiceEndpoint::reactor_loop() {
  std::vector<epoll_event> events(128);
  for (;;) {
    if (stopping_.load()) {
      reactor_shutdown_drain();
      return;
    }
    reactor_flush_exec_overflow();
    // A fixed 100 ms tick bounds how stale read deadlines can get; IO,
    // completions and terminal campaigns wake the loop immediately.
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0 && errno != EINTR) {
      EMUTILE_WARN("endpoint reactor: epoll_wait failed: "
                   << std::strerror(errno));
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_ || (tcp_listen_fd_ >= 0 && fd == tcp_listen_fd_)) {
        reactor_accept(fd);
      } else if (fd == wake_fd_) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &v, sizeof v);
        reactor_drain_done();
      } else {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // already closed this tick
        Conn& conn = *it->second;
        if (conn.state == Conn::St::kReading)
          reactor_readable(conn);
        else if (conn.state == Conn::St::kWriting)
          reactor_writable(conn);
      }
    }
    reactor_drain_done();
    reactor_wake_parked();
    reactor_expire_readers();
  }
}

void ServiceEndpoint::reactor_accept(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->read_deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kRequestReadTimeoutMs);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    MetricsRegistry::global().counter("endpoint.connections").add();
    MetricsRegistry::global().gauge("endpoint.connections_active").add();
    conns_.emplace(fd, std::move(conn));
  }
}

void ServiceEndpoint::reactor_readable(Conn& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.request.append(buf, static_cast<std::size_t>(n));
      if (!conn.persistent && conn.request.size() >= 8 &&
          conn.request.compare(0, 8, "PERSIST\n") == 0) {
        // The persistent handshake: ack it, then serve one single-line
        // request per exchange with length-framed responses.
        conn.persistent = true;
        conn.pending = conn.request.substr(8);
        conn.request.clear();
        conn.response = "OK persist\n";
        conn.frame_response = false;
        MetricsRegistry::global().counter("endpoint.persistent").add();
        reactor_finish(conn);
        return;
      }
      if (conn.persistent) {
        reactor_persistent_dispatch(conn);
        if (conn.state != Conn::St::kReading) return;
      }
      continue;
    }
    if (n == 0) {
      if (conn.persistent) {
        // The client hung up between exchanges: a normal persistent close.
        reactor_close(conn);
        return;
      }
      // EOF: the client half-closed, the request is complete. The fd goes
      // quiet in epoll until the response is ready.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.state = Conn::St::kExecuting;
      reactor_queue_exec(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // more later
    reactor_close(conn);
    return;
  }
}

void ServiceEndpoint::reactor_persistent_dispatch(Conn& conn) {
  const std::size_t eol = conn.request.find('\n');
  if (eol == std::string::npos) return;  // line still incomplete
  conn.pending = conn.request.substr(eol + 1);
  conn.request.resize(eol + 1);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  conn.state = Conn::St::kExecuting;
  conn.frame_response = true;
  reactor_queue_exec(conn);
}

void ServiceEndpoint::reactor_persistent_reset(Conn& conn) {
  conn.state = Conn::St::kReading;
  conn.response.clear();
  conn.write_off = 0;
  conn.parked = false;
  conn.counted = false;
  conn.series.clear();
  conn.wait_id.clear();
  conn.request = std::move(conn.pending);
  conn.pending.clear();
  conn.read_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kPersistentIdleTimeoutMs);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0 &&
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
    reactor_close(conn);
    return;
  }
  // A pipelining client may have delivered the next line already.
  reactor_persistent_dispatch(conn);
}

void ServiceEndpoint::reactor_queue_exec(Conn& conn) {
  if (!exec_queue_->try_push(&conn)) exec_overflow_.push_back(&conn);
}

void ServiceEndpoint::reactor_flush_exec_overflow() {
  while (!exec_overflow_.empty()) {
    if (!exec_queue_->try_push(exec_overflow_.front())) return;
    exec_overflow_.pop_front();
  }
}

void ServiceEndpoint::reactor_drain_done() {
  while (std::optional<Conn*> done = done_queue_->try_pop()) {
    Conn& conn = **done;
    if (conn.parked && !stopping_.load()) {
      reactor_park(conn);
    } else if (conn.parked) {
      // Stopping: a parked WAIT cannot be satisfied anymore.
      conn.parked = false;
      conn.response = "ERR service shutting down\n";
      reactor_finish(conn);
    } else {
      reactor_finish(conn);
    }
  }
}

void ServiceEndpoint::reactor_park(Conn& conn) {
  // The campaign may have turned terminal after the worker's probe, and
  // reactor_wake_parked may already have consumed that notification with
  // nobody parked on the id. Re-probe: a transition after this probe is
  // still queued for reactor_wake_parked, which runs after the conn is
  // indexed below.
  bool terminal = true;  // an unknown id re-executes into its ERR
  try {
    terminal = service_.wait_for(conn.wait_id, std::chrono::milliseconds(0));
  } catch (const std::exception&) {
  }
  if (terminal) {
    reactor_queue_exec(conn);
    return;
  }
  conn.state = Conn::St::kParked;
  parked_[conn.wait_id].push_back(&conn);
}

void ServiceEndpoint::reactor_wake_parked() {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(terminal_mutex_);
    ids.swap(terminal_ids_);
  }
  for (const std::string& id : ids) {
    const auto it = parked_.find(id);
    if (it == parked_.end()) continue;
    for (Conn* conn : it->second) {
      conn->state = Conn::St::kExecuting;
      reactor_queue_exec(*conn);
    }
    parked_.erase(it);
  }
}

void ServiceEndpoint::reactor_finish(Conn& conn) {
  if (conn.persistent && conn.frame_response) {
    // Length-frame so the client can delimit the response without the
    // one-shot protocol's close-on-done.
    conn.response = "#" + std::to_string(conn.response.size()) + "\n" +
                    conn.response;
    conn.frame_response = false;
  }
  conn.state = Conn::St::kWriting;
  conn.write_off = 0;
  epoll_event ev{};
  ev.events = EPOLLOUT;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
    // The fd may still be registered (read-deadline path): try MOD.
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
      reactor_close(conn);
      return;
    }
  }
  reactor_writable(conn);  // usually flushes in one go
}

void ServiceEndpoint::reactor_writable(Conn& conn) {
  while (conn.write_off < conn.response.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.response.data() + conn.write_off,
               conn.response.size() - conn.write_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT later
      reactor_close(conn);
      return;
    }
    conn.write_off += static_cast<std::size_t>(n);
  }
  if (conn.persistent && !stopping_.load()) {
    reactor_persistent_reset(conn);  // next exchange on the same fd
    return;
  }
  reactor_close(conn);  // one-shot protocol: reply flushed, done
}

void ServiceEndpoint::reactor_close(Conn& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  MetricsRegistry::global().gauge("endpoint.connections_active").sub();
  conns_.erase(conn.fd);  // frees the Conn
}

void ServiceEndpoint::reactor_expire_readers() {
  const auto now = std::chrono::steady_clock::now();
  // Expire readers that never delivered a complete request. Collect first:
  // finishing may close (and erase) the conn.
  std::vector<Conn*> expired;
  for (const auto& [fd, conn] : conns_)
    if (conn->state == Conn::St::kReading && conn->read_deadline <= now)
      expired.push_back(conn.get());
  for (Conn* conn : expired) {
    if (conn->persistent) {
      // Idle persistent connection: close silently, the client re-dials.
      reactor_close(*conn);
      continue;
    }
    MetricsRegistry::global().counter("endpoint.read_timeouts").add();
    conn->response = "ERR request read failed\n";
    reactor_finish(*conn);
  }
}

void ServiceEndpoint::reactor_shutdown_drain() {
  // No new connections.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, tcp_listen_fd_, nullptr);
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  // Readers cannot complete anymore; answer like the legacy stop path.
  // Persistent connections between exchanges just close — their client
  // treats a dropped channel as "re-dial later" anyway.
  std::vector<Conn*> readers;
  for (const auto& [fd, conn] : conns_)
    if (conn->state == Conn::St::kReading) readers.push_back(conn.get());
  for (Conn* conn : readers) {
    if (conn->persistent) {
      reactor_close(*conn);
      continue;
    }
    conn->response = "ERR request read failed\n";
    reactor_finish(*conn);
  }
  // Parked WAITs get a terminal answer.
  std::unordered_map<std::string, std::vector<Conn*>> parked;
  parked.swap(parked_);
  for (const auto& [id, waiters] : parked) {
    for (Conn* conn : waiters) {
      conn->response = "ERR service shutting down\n";
      reactor_finish(*conn);
    }
  }
  // Drain: every queued/running execution finishes (WAITs observe the stop
  // flag and answer immediately, every other handler is bounded), then the
  // responses get a bounded window to flush. Conn objects referenced by
  // workers are never freed here — only kWriting stragglers are forced.
  std::vector<epoll_event> events(128);
  auto flush_deadline = std::chrono::steady_clock::now();
  for (;;) {
    reactor_flush_exec_overflow();
    reactor_drain_done();
    bool executing = false;
    bool writing = false;
    for (const auto& [fd, conn] : conns_) {
      executing = executing || conn->state == Conn::St::kExecuting;
      writing = writing || conn->state == Conn::St::kWriting;
    }
    const auto now = std::chrono::steady_clock::now();
    if (executing)
      flush_deadline = now + std::chrono::seconds(2);
    if (!executing && (!writing || now > flush_deadline)) break;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 10);
    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &v, sizeof v);
        continue;
      }
      const auto it = conns_.find(fd);
      if (it != conns_.end() && it->second->state == Conn::St::kWriting)
        reactor_writable(*it->second);
    }
  }
  // Whatever is left is a peer that stopped reading its reply: close it.
  while (!conns_.empty()) reactor_close(*conns_.begin()->second);
}

void ServiceEndpoint::worker_loop() {
  while (std::optional<Conn*> next = exec_queue_->pop_wait(workers_stop_)) {
    Conn& conn = **next;
    conn.parked = !execute(conn);
    if (!done_queue_->push_wait(&conn, workers_stop_)) return;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

bool ServiceEndpoint::execute(Conn& conn) {
  MetricsRegistry& reg = MetricsRegistry::global();
  if (!conn.counted) {
    // First execution of this request: per-command accounting starts here
    // and — for WAITs, which may park many times — ends only when the
    // response is produced, so the latency sample spans the whole wait.
    const std::size_t eol = conn.request.find('\n');
    std::istringstream line(eol == std::string::npos
                                ? conn.request
                                : conn.request.substr(0, eol));
    std::string command;
    line >> command;
    conn.series = known_command(command) ? command : "OTHER";
    conn.counted = true;
    conn.exec_start = std::chrono::steady_clock::now();
    conn.exec_start_journal_us = journal_now_us();
    if (conn.series == "WAIT") {
      reg.counter("endpoint.requests.WAIT").add();
      line >> conn.wait_id;
    }
  }
  if (conn.series == "WAIT") {
    // Never block a worker: probe, and park when not yet terminal.
    if (conn.wait_id.empty()) {
      conn.response = "ERR WAIT needs a campaign id\n";
    } else {
      try {
        if (!service_.wait_for(conn.wait_id, std::chrono::milliseconds(0))) {
          if (!stopping_.load()) return false;  // park until terminal
          conn.response = "ERR service shutting down\n";
        } else {
          const std::optional<CampaignStatus> s =
              service_.status(conn.wait_id);
          conn.response =
              std::string("OK ") + (s ? to_string(s->state) : "unknown") +
              "\n";
        }
      } catch (const std::exception& e) {
        reg.counter("endpoint.errors").add();
        conn.response = std::string("ERR ") + e.what() + "\n";
      }
    }
  } else {
    try {
      conn.response = handle_request(conn.request);
    } catch (const std::exception& e) {
      reg.counter("endpoint.errors").add();
      conn.response = std::string("ERR ") + e.what() + "\n";
    }
  }
  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - conn.exec_start)
          .count());
  if (conn.series == "WAIT") {
    // handle_request records the other commands' latency itself; the WAIT
    // fast path above bypasses it, so record (and trace) here, covering
    // park time.
    reg.histogram("endpoint.request_us.WAIT").record(elapsed_us);
    Tracer::global().record_span(
        "endpoint.request.WAIT", Tracer::global().child_context({}), 0,
        conn.exec_start_journal_us, elapsed_us);
  }
  if (elapsed_us > slow_request_us_.load()) {
    reg.counter("endpoint.slow_requests").add();
    EMUTILE_WARN("slow request: " << conn.series << " took "
                                  << elapsed_us / 1000 << " ms (threshold "
                                  << slow_request_us_.load() / 1000 << " ms)");
  }
  return true;
}

// ---- the protocol ----------------------------------------------------------

std::string ServiceEndpoint::handle_request(const std::string& request) {
  const std::size_t eol = request.find('\n');
  const std::string first =
      eol == std::string::npos ? request : request.substr(0, eol);
  const std::string body =
      eol == std::string::npos ? "" : request.substr(eol + 1);
  std::istringstream line(first);
  std::string command;
  line >> command;

  // Per-command request accounting. The latency probe covers the whole
  // handler, including service calls and disk reads — what a client feels.
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::string series = known_command(command) ? command : "OTHER";
  // Reactor-mode WAITs are counted by execute() (they never reach here).
  reg.counter("endpoint.requests." + series).add();
  const ScopedLatency latency(reg.histogram("endpoint.request_us." + series));

  // The request span. A SUBMIT carrying a traceparent token joins the
  // submitter's trace; everything else roots a trace of its own.
  TraceContext span_parent{};
  int priority = 0;
  std::string name_hint;
  std::uint64_t deadline_ms = 0;
  if (command == "SUBMIT") {
    line >> priority;
    std::string token;
    while (line >> token) {
      if (token.rfind("traceparent=", 0) == 0) {
        if (const auto ctx =
                parse_traceparent(token.substr(std::strlen("traceparent="))))
          span_parent = *ctx;
      } else if (token.rfind("deadline_ms=", 0) == 0) {
        try {
          deadline_ms = std::stoull(token.substr(std::strlen("deadline_ms=")));
        } catch (const std::exception&) {
          return "ERR SUBMIT deadline_ms must be a non-negative integer\n";
        }
      } else if (name_hint.empty()) {
        name_hint = token;
      }
    }
  }
  std::optional<ScopedSpan> span;
  if (traced_command(series))
    span.emplace(Tracer::global(), "endpoint.request." + series, span_parent);

  if (command == "PING") {
    return "OK pong\n";
  } else if (command == "HELLO") {
    // The transport probe: protocol version, a stable instance id, and the
    // capability list a client keys transport decisions on. Pre-HELLO
    // daemons answer `ERR unknown command 'HELLO'` and clients fall back to
    // the v1 subset — rolling upgrades degrade explicitly, not accidentally.
    std::ostringstream os;
    os << "OK proto=" << kWireProtocolVersion << " id=" << instance_id_
       << " mode="
       << (options_.mode == EndpointMode::kReactor ? "reactor" : "legacy")
       << " caps=oneshot";
    if (options_.mode == EndpointMode::kReactor) os << ",persist";
    if (tcp_address_) os << ",tcp";
    os << "\n";
    return os.str();
  } else if (command == "SUBMIT") {
    try {
      const std::string id = service_.submit_text(
          body, priority, name_hint,
          span ? span->context() : TraceContext{}, deadline_ms);
      return "OK " + id + "\n";
    } catch (const ServiceOverdeadlineError& e) {
      // Distinguished first tokens: clients branch on these stable codes to
      // back off (`busy`), route elsewhere permanently (`draining` — this
      // instance will never admit again), or relax the deadline
      // (`overdeadline`), instead of treating the spec as malformed.
      return std::string("ERR overdeadline ") + e.what() + "\n";
    } catch (const ServiceBusyError& e) {
      if (service_.draining())
        return std::string("ERR draining ") + e.what() + "\n";
      return std::string("ERR busy ") + e.what() + "\n";
    }
  } else if (command == "STATUS") {
    std::string id;
    if (!(line >> id)) return "ERR STATUS needs a campaign id\n";
    const std::optional<CampaignStatus> s = service_.status(id);
    if (!s) return "ERR unknown campaign '" + id + "'\n";
    std::ostringstream os;
    os << "OK " << status_line(*s) << " uptime_s=" << service_.uptime_seconds()
       << " queued=" << service_.queued_count()
       << " running=" << service_.running_count()
       << " draining=" << (service_.draining() ? 1 : 0) << "\n";
    return os.str();
  } else if (command == "LIST") {
    const std::vector<CampaignStatus> all = service_.list();
    std::ostringstream os;
    os << "OK " << all.size() << "\n";
    for (const CampaignStatus& s : all) os << status_line(s) << "\n";
    return os.str();
  } else if (command == "CANCEL") {
    std::string id;
    if (!(line >> id)) return "ERR CANCEL needs a campaign id\n";
    if (!service_.cancel(id)) return "ERR unknown campaign '" + id + "'\n";
    return "OK cancelled\n";
  } else if (command == "WAIT") {
    std::string id;
    if (!(line >> id)) return "ERR WAIT needs a campaign id\n";
    // Legacy mode only (the reactor parks WAITs in execute() instead). Poll
    // so ~ServiceEndpoint (which drains this connection thread) can
    // interrupt the wait: with the daemon tearing down before the service,
    // the waited-on state change may only happen after the endpoint is gone
    // — blocking here indefinitely would deadlock shutdown.
    while (!service_.wait_for(id, std::chrono::milliseconds(100)))
      if (stopping_.load()) return "ERR service shutting down\n";
    const std::optional<CampaignStatus> s = service_.status(id);
    return std::string("OK ") + (s ? to_string(s->state) : "unknown") + "\n";
  } else if (command == "SHARDREPORT") {
    std::string id;
    if (!(line >> id)) return "ERR SHARDREPORT needs a campaign id\n";
    const std::optional<CampaignStatus> s = service_.status(id);
    if (!s) return "ERR unknown campaign '" + id + "'\n";
    if (s->state == CampaignState::kFailed)
      return "ERR campaign '" + id + "' failed: " + s->error + "\n";
    if (s->state != CampaignState::kFinished &&
        s->state != CampaignState::kCancelled)
      return "ERR campaign '" + id + "' is still " + to_string(s->state) +
             " — WAIT for it first\n";
    // finalize() published the mergeable form before the state flipped
    // terminal, so a terminal campaign always has it on disk.
    try {
      return "OK " + id + "\n" + read_file(s->out_dir / "report.shard");
    } catch (const std::exception& e) {
      return std::string("ERR shard report unreadable: ") + e.what() + "\n";
    }
  } else if (command == "CACHE") {
    ResultCache* cache = service_.cache();
    if (!cache) return "ERR result cache disabled\n";
    std::ostringstream os;
    os << "OK entries=" << cache->entries() << " bytes=" << cache->bytes()
       << " hits=" << cache->hits() << " misses=" << cache->misses()
       << " stores=" << cache->stores()
       << " evictions=" << cache->evictions()
       << " index_hits=" << cache->index_hits()
       << " index_misses=" << cache->index_misses()
       << " index_stores=" << cache->index_stores()
       << " index_entries=" << cache->index_entries() << "\n";
    return os.str();
  } else if (command == "METRICS") {
    // The whole process-wide registry, either as the stable text exposition
    // (what parse_metrics_text and the coordinator's fleet merge consume) or
    // as JSON for humans and dashboards. The first reply line carries a
    // token after "OK " so ServiceClient::expect_ok stays happy; the payload
    // follows verbatim.
    std::string format;
    line >> format;
    const MetricsSnapshot snap = reg.snapshot();
    if (format == "json") return "OK json\n" + snap.to_json();
    if (!format.empty() && format != "text")
      return "ERR METRICS takes no argument, 'text', or 'json'\n";
    return "OK text\n" + snap.to_text();
  } else if (command == "TRACESPANS") {
    // Everything the tracer has buffered, open spans included (the console's
    // "slowest open spans" view needs them; the coordinator's stitcher drops
    // them). now_us lets the fetcher midpoint-correct for clock offset.
    const std::vector<TraceSpan> spans = Tracer::global().collect(true);
    std::ostringstream os;
    os << "OK now_us=" << journal_now_us() << " spans=" << spans.size()
       << "\n"
       << trace_spans_to_text(spans);
    return os.str();
  } else if (command == "DRAIN") {
    // The rolling-upgrade handoff: stop admitting (submits shed with a
    // "draining" error the coordinator understands), let in-flight
    // campaigns finish or journal, then the daemon exits 0 once drained.
    service_.begin_drain();
    std::ostringstream os;
    os << "OK draining queued=" << service_.queued_count()
       << " running=" << service_.running_count() << "\n";
    return os.str();
  } else if (command == "SHUTDOWN") {
    shutdown_requested_.store(true);
    return "OK bye\n";
  }
  reg.counter("endpoint.errors").add();
  return "ERR unknown command '" + command + "'\n";
}

std::string endpoint_request(const ServiceAddress& address,
                             const std::string& request, int timeout_ms) {
  const int fd = dial_service_address(address);
  std::string response;
  const bool sent = fd_write_all(fd, request);
  if (sent) ::shutdown(fd, SHUT_WR);  // half-close delimits the request
  const bool received = sent && fd_read_all(fd, response, timeout_ms);
  ::close(fd);
  EMUTILE_CHECK(sent && received, "request to " << address.to_string()
                                                << " failed mid-flight"
                                                << (timeout_ms >= 0
                                                        ? " or timed out"
                                                        : ""));
  return response;
}

std::string endpoint_request(const std::filesystem::path& socket_path,
                             const std::string& request, int timeout_ms) {
  return endpoint_request(ServiceAddress::unix_socket(socket_path), request,
                          timeout_ms);
}

}  // namespace emutile
