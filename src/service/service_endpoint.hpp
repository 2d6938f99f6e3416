#pragma once
/// \file service_endpoint.hpp
/// Control endpoint for the session service: a Unix-domain stream socket —
/// and, optionally, a TCP listener alongside it for cross-host fleets — both
/// speaking the same one-shot, line-oriented text protocol (one request per
/// connection; the client half-closes after writing, the server replies and
/// closes — so the connection itself delimits both sides).
///
/// Requests (first line; SUBMIT carries the spec text as the body):
///
///   HELLO                        -> OK proto=2 id=<instance-id>
///                                   mode=<reactor|legacy> caps=<c1,c2,...>
///                                   (protocol version, stable instance id,
///                                   transport capabilities: `oneshot`
///                                   always, `persist` in reactor mode,
///                                   `tcp` when a TCP listener is active.
///                                   Clients probe once per address and
///                                   degrade gracefully when a pre-HELLO
///                                   daemon answers `ERR unknown command` —
///                                   version skew during rolling upgrades is
///                                   explicit, not accidental)
///   PING                         -> OK pong
///   SUBMIT <priority> [<name>] [traceparent=<t>-<s>] [deadline_ms=<n>]
///                                -> OK <campaign-id>      (body = spec text)
///                                   `ERR busy ...` when the bounded campaign
///                                   queue (ServiceConfig::max_pending) is
///                                   full or the spec exceeds the per-campaign
///                                   session quota — resubmit later, smaller,
///                                   or elsewhere. `ERR draining ...` once
///                                   DRAIN/SIGUSR2 stopped admission — this
///                                   instance will never admit again; route
///                                   elsewhere. `ERR overdeadline ...` when
///                                   admission control concludes the requested
///                                   relative deadline cannot be met given the
///                                   observed session-latency p99 and the work
///                                   already queued. The optional traceparent
///                                   token (see obs/trace.hpp) parents the
///                                   daemon's campaign spans on the
///                                   submitter's trace.
///   STATUS <id>                  -> OK <id> <state> <done>/<total>
///                                   hits=<n> misses=<n> snapshots=<n>
///                                   replayed=<n> uptime_s=<n> queued=<n>
///                                   running=<n> draining=<0|1>
///                                   (replayed counts sessions a reattach
///                                   restored from the journal + cache;
///                                   draining=1 once DRAIN/SIGUSR2 stopped
///                                   admission)
///   LIST                         -> OK <count>  (+ one status line per
///                                   campaign)
///   CANCEL <id>                  -> OK cancelled
///   WAIT <id>                    -> OK <terminal-state>   (blocks)
///   SHARDREPORT <id>             -> OK <id>  (+ the campaign's mergeable
///                                   report, campaign_report_io format; only
///                                   after the campaign is terminal — a
///                                   coordinator merges these shard reports
///                                   into the fleet-wide result)
///   CACHE                        -> OK entries=<n> bytes=<n> hits=<n>
///                                   misses=<n> stores=<n> evictions=<n>
///                                   index_hits=<n> index_misses=<n>
///                                   index_stores=<n> index_entries=<n>
///                                   (result-cache stats since daemon start;
///                                   `ERR` when the cache is disabled)
///   TRACESPANS                   -> OK now_us=<n> spans=<n>  (+ the
///                                   instance's buffered trace spans in the
///                                   emutile-trace text format, open spans
///                                   included; now_us is the instance's
///                                   journal clock at reply time, which the
///                                   coordinator's clock-offset stitching
///                                   reads)
///   DRAIN                        -> OK draining queued=<n> running=<n>
///                                   (stop admitting: later SUBMITs answer
///                                   `ERR draining ...`; in-flight campaigns
///                                   finish or journal, and the daemon exits
///                                   0 once drained — the rolling-upgrade
///                                   handoff)
///   SHUTDOWN                     -> OK bye  (sets shutdown_requested)
///
/// Errors answer `ERR <message>`. The first token after ERR is a stable
/// machine code for the distinguished sheds (`busy`, `draining`,
/// `overdeadline`) — ServiceClient maps them onto ServiceErrorCode.
///
/// Persistent connections (reactor mode only, advertised as the `persist`
/// HELLO capability): a client that opens with the line `PERSIST\n` gets
/// `OK persist\n` back and the connection then stays open, carrying one
/// single-line request per exchange (no SUBMIT bodies). Each response is
/// length-framed as `#<bytes>\n<payload>` so the client can delimit it
/// without a half-close. This is what spares a coordinator's STATUS polling
/// loop a dial per tick on TCP.
///
/// Two connection-handling modes, byte-identical on the wire:
///
///   kReactor (default)  One epoll-multiplexed reactor thread owns every fd:
///                       non-blocking accept/read/write, a per-connection
///                       state machine buffering partial requests, and a
///                       small worker pool executing complete requests
///                       (handed over through lock-free MPMC rings, woken by
///                       an eventfd). Blocking WAITs never pin a worker:
///                       they "park" in the reactor, indexed by campaign id,
///                       and the service's terminal listener wakes exactly
///                       the waiters of a campaign the moment it turns
///                       terminal, so thousands of simultaneous clients
///                       (waiters included) fit in a handful of threads. On
///                       stop the reactor drains: in-flight executions
///                       finish and flush, readers and parked waiters get a
///                       terminal ERR, and every fd the endpoint ever owned
///                       is provably closed.
///
///   kThreadPerConnection  The original accept-thread + thread-per-connection
///                       server. Kept as the A/B baseline for the
///                       submit-storm bench and the cross-mode byte-identity
///                       test. One-shot only (no PERSIST — the capability is
///                       absent from its HELLO).
///
/// The server applies a receive deadline to each request, so a client that
/// connects and never writes (or never half-closes) gets dropped (counted in
/// `endpoint.read_timeouts`) instead of pinning a connection and blocking
/// daemon shutdown; an idle persistent connection is silently closed after a
/// longer deadline (the client re-dials transparently). Requests slower than
/// the slow-request threshold (set_slow_request_ms, default 1000) log a WARN
/// with the command and duration and count into `endpoint.slow_requests`.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/address.hpp"
#include "util/mpmc_queue.hpp"

namespace emutile {

class SessionService;

/// Version advertised by HELLO. v2 added HELLO itself, the distinguished
/// `ERR draining` token, and PERSIST framing; v1 daemons answer HELLO with
/// `ERR unknown command` and clients fall back to the v1 subset.
inline constexpr int kWireProtocolVersion = 2;

enum class EndpointMode : std::uint8_t {
  kReactor,              ///< epoll reactor + worker pool (default)
  kThreadPerConnection,  ///< legacy: one detached thread per connection
};

struct EndpointOptions {
  EndpointMode mode = EndpointMode::kReactor;
  /// Request-execution worker threads (reactor mode only). Small on
  /// purpose: requests are short (WAIT parks instead of blocking), so a
  /// handful of workers saturate the service core.
  std::size_t workers = 4;
  /// When set (must be kTcp), listen on this TCP address alongside the Unix
  /// socket — same protocol, byte-identical. Port 0 takes an ephemeral port;
  /// read the bound one back with ServiceEndpoint::tcp_address().
  std::optional<ServiceAddress> tcp;
};

class ServiceEndpoint {
 public:
  /// Bind and listen on `socket_path` (an existing stale socket file is
  /// replaced) — plus `options.tcp` when set — and start serving. Throws
  /// CheckError on bind failures. A reactor endpoint installs `service`'s
  /// one terminal listener, so a service serves one reactor endpoint at a
  /// time.
  ServiceEndpoint(SessionService& service, std::filesystem::path socket_path,
                  EndpointOptions options = {});

  /// Stops accepting, drains in-flight connections, closes every owned fd,
  /// unlinks the socket.
  ~ServiceEndpoint();

  ServiceEndpoint(const ServiceEndpoint&) = delete;
  ServiceEndpoint& operator=(const ServiceEndpoint&) = delete;

  [[nodiscard]] const std::filesystem::path& socket_path() const {
    return socket_path_;
  }

  /// The TCP address actually bound (real port filled in for :0 requests);
  /// nullopt when the endpoint is Unix-only.
  [[nodiscard]] const std::optional<ServiceAddress>& tcp_address() const {
    return tcp_address_;
  }

  /// Stable id this instance announces in HELLO (hostname-pid).
  [[nodiscard]] const std::string& instance_id() const {
    return instance_id_;
  }

  [[nodiscard]] EndpointMode mode() const { return options_.mode; }

  /// True once a client sent SHUTDOWN. The daemon's main loop polls this.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load();
  }

  /// Requests slower than this WARN and count into `endpoint.slow_requests`.
  /// Fractional milliseconds are honored (tests set 0 to trip on any
  /// request); the comparison is strict, so 0 still requires a measurable
  /// duration.
  void set_slow_request_ms(double ms) {
    slow_request_us_.store(
        ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0));
  }

 private:
  // ---- shared (both modes) ----
  [[nodiscard]] std::string handle_request(const std::string& request);

  // ---- legacy thread-per-connection mode ----
  void accept_loop();
  void serve_connection(int fd);

  // ---- reactor mode ----
  /// Per-connection state machine, owned by the reactor. Workers touch a
  /// connection only between kExecuting hand-off and done-ring hand-back.
  struct Conn;
  void reactor_loop();
  void worker_loop();
  /// Execute a complete request on a worker. Returns true when the
  /// connection produced a response (kWriting next), false when a WAIT
  /// parked (the reactor re-queues it once its campaign turns terminal).
  [[nodiscard]] bool execute(Conn& conn);
  void reactor_accept(int listen_fd);
  void reactor_readable(Conn& conn);
  void reactor_writable(Conn& conn);
  void reactor_close(Conn& conn);
  void reactor_finish(Conn& conn);  ///< response ready -> start writing
  /// A persistent connection flushed its response: reset for the next
  /// single-line request (and dispatch one if it is already buffered).
  void reactor_persistent_reset(Conn& conn);
  /// Queue the next buffered line of a persistent connection, if complete.
  void reactor_persistent_dispatch(Conn& conn);
  void reactor_drain_done();
  /// Park a WAIT under its campaign id, or re-queue it at once when the
  /// campaign turned terminal before it was parked.
  void reactor_park(Conn& conn);
  /// Re-queue every WAIT parked on a campaign the listener reported
  /// terminal.
  void reactor_wake_parked();
  void reactor_queue_exec(Conn& conn);
  void reactor_flush_exec_overflow();
  void reactor_expire_readers();
  void reactor_shutdown_drain();

  SessionService& service_;
  std::filesystem::path socket_path_;
  EndpointOptions options_;
  std::optional<ServiceAddress> tcp_address_;
  std::string instance_id_;
  int listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> slow_request_us_{1'000'000};

  // Legacy mode.
  std::thread accept_thread_;
  // Connection threads are detached so a long-lived daemon never accumulates
  // joinable threads; this counter lets the destructor drain them.
  std::mutex active_mutex_;
  std::condition_variable active_drained_;
  std::size_t active_connections_ = 0;

  // Reactor mode. The reactor thread owns epoll_fd_, wake_fd_, the listen
  // fds, and every connection fd; workers never see an fd.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: workers and the listener nudge it
  std::thread reactor_thread_;
  std::vector<std::thread> worker_threads_;
  std::atomic<bool> workers_stop_{false};
  std::unique_ptr<MpmcQueue<Conn*>> exec_queue_;  ///< reactor -> workers
  std::unique_ptr<MpmcQueue<Conn*>> done_queue_;  ///< workers -> reactor
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  ///< by fd
  std::deque<Conn*> exec_overflow_;  ///< exec ring full: retry next tick
  /// WAITs whose campaign is not yet terminal, by campaign id.
  std::unordered_map<std::string, std::vector<Conn*>> parked_;
  /// Campaigns the service reported terminal since the reactor last looked
  /// (written by the terminal listener, drained by reactor_wake_parked).
  std::mutex terminal_mutex_;
  std::vector<std::string> terminal_ids_;
};

/// Client side of the protocol: dial `address` (kUnix or kTcp), send
/// `request` (first line + optional body), half-close, and return the full
/// response. Throws CheckError on connection errors, or when the response
/// has not arrived in full within `timeout_ms` (negative blocks indefinitely
/// — only appropriate for WAIT against a trusted daemon; a coordinator
/// polling many instances must bound every exchange so one hung daemon
/// cannot wedge it).
[[nodiscard]] std::string endpoint_request(const ServiceAddress& address,
                                           const std::string& request,
                                           int timeout_ms = -1);

/// Legacy form: a bare path is a Unix socket.
[[nodiscard]] std::string endpoint_request(
    const std::filesystem::path& socket_path, const std::string& request,
    int timeout_ms = -1);

}  // namespace emutile
