#pragma once
/// \file service_client.hpp
/// Client side of a serviced instance: typed wrappers over the line protocol
/// of service_endpoint.hpp, shared by emutile_submit, the campaign
/// coordinator, the fleet console, and anything else that talks to a daemon.
///
/// Addressing: a client dials a ServiceAddress (unix:/path or tcp:host:port;
/// a bare path keeps its legacy Unix-socket meaning). Every exchange is
/// bounded by this client's receive timeout, so a hung or dead daemon
/// surfaces as an error within the timeout instead of blocking the caller
/// forever.
///
/// Errors: every failure throws ServiceError, which carries a stable
/// ServiceErrorCode — transport failures are kIo, `ERR busy` is kBusy,
/// `ERR draining` (or a pre-v2 daemon's busy-while-draining) is kDraining,
/// `ERR overdeadline` is kOverdeadline, anything else the daemon refused is
/// kProtocol. Callers switch retry policy on codes, never on substrings.
/// ServiceError derives from CheckError so legacy catch sites keep working.
///
/// Transport: by default every method opens a fresh one-shot connection
/// through endpoint_request(). Opt into set_persistent(true) and the client
/// keeps one connection per instance open for single-line commands (STATUS
/// polling over TCP stops paying a dial per tick), transparently falling
/// back to one-shot — and re-dialing later — whenever the channel breaks.
/// The persistent channel is only used against daemons whose HELLO
/// advertises the `persist` capability; hello() probes once per client and
/// degrades gracefully against pre-HELLO daemons.
///
/// A ServiceClient is not thread-safe: it caches the HELLO reply and may own
/// a persistent connection. Give each thread its own client.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "service/address.hpp"
#include "util/check.hpp"

namespace emutile {

/// Stable machine-readable failure codes — the wire protocol's distinguished
/// `ERR <code>` tokens plus the two client-side conditions.
enum class ServiceErrorCode : std::uint8_t {
  kBusy,          ///< bounded queue full / over quota — retry later/elsewhere
  kOverdeadline,  ///< admission control shed the deadline — relax or drop it
  kDraining,      ///< instance stopped admitting for good — route elsewhere
  kProtocol,      ///< daemon refused or replied out of grammar
  kIo,            ///< dial/read/write failure or timeout — instance may be gone
};

[[nodiscard]] const char* to_string(ServiceErrorCode code);

/// Any failure talking to a serviced instance. `code()` is the retry-policy
/// switch; what() carries the human-readable detail.
class ServiceError : public CheckError {
 public:
  ServiceError(ServiceErrorCode code, const std::string& detail)
      : CheckError(detail), code_(code) {}

  [[nodiscard]] ServiceErrorCode code() const { return code_; }

 private:
  ServiceErrorCode code_;
};

/// Parsed HELLO reply. `supported == false` means the daemon predates HELLO
/// (it answered `ERR unknown command`) — treat it as protocol v1, one-shot
/// transport only.
struct ServiceHello {
  bool supported = false;
  int proto = 1;
  std::string id;    ///< stable instance id (hostname-pid)
  /// "reactor"; older daemons may still answer "legacy" (one-shot only,
  /// no `persist` cap) during a rolling upgrade.
  std::string mode;
  std::vector<std::string> caps;

  [[nodiscard]] bool has_cap(const std::string& cap) const;
};

/// Parsed form of one STATUS line.
struct RemoteCampaignStatus {
  std::string id;
  std::string state;  ///< queued|running|finished|cancelled|failed
  std::size_t sessions_done = 0;
  std::size_t sessions_total = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t snapshots = 0;
  /// Sessions a restart's reattach restored from the write-ahead journal +
  /// result cache instead of re-executing.
  std::size_t replayed = 0;
  /// Daemon-level fields (STATUS appends them after the per-campaign ones);
  /// zero when talking to a daemon that predates them.
  std::size_t daemon_uptime_s = 0;
  std::size_t daemon_queued = 0;   ///< campaigns waiting for their first unit
  std::size_t daemon_running = 0;  ///< campaigns with sessions in flight
  /// True once the daemon stopped admitting (DRAIN/SIGUSR2): route new work
  /// elsewhere and expect this instance to exit after its backlog finishes.
  bool daemon_draining = false;

  [[nodiscard]] bool terminal() const {
    return state == "finished" || state == "cancelled" || state == "failed";
  }
};

/// Parsed form of a CACHE response.
struct RemoteCacheStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
};

/// Parsed form of a TRACESPANS response: the instance's buffered spans plus
/// its journal clock at reply time (`now_us`), which is what the
/// coordinator's midpoint clock-offset correction needs.
struct RemoteTraceSpans {
  std::vector<TraceSpan> spans;
  std::uint64_t now_us = 0;
};

/// A WAIT in flight on its own one-shot connection: dialed, `WAIT <id>`
/// written, write side half-closed. The daemon answers when the campaign
/// turns terminal, so fd() turns readable exactly then — a caller can
/// poll(2) many of these at once. Move-only; the socket closes on
/// read_reply(), close(), or destruction, whichever comes first.
class PendingWait {
 public:
  PendingWait() = default;
  ~PendingWait() { close(); }
  PendingWait(PendingWait&& other) noexcept;
  PendingWait& operator=(PendingWait&& other) noexcept;
  PendingWait(const PendingWait&) = delete;
  PendingWait& operator=(const PendingWait&) = delete;

  /// The socket to poll for POLLIN; -1 once closed (or never opened).
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool open() const { return fd_ >= 0; }

  /// Read the reply (blocking up to `timeout_ms`; negative blocks
  /// indefinitely), close the socket, and return the terminal state
  /// ("finished", "cancelled", "failed"). Throws ServiceError: kIo when the
  /// read fails or times out, the mapped code when the daemon answered ERR
  /// or closed without answering.
  [[nodiscard]] std::string read_reply(int timeout_ms);

  void close();

 private:
  friend class ServiceClient;
  PendingWait(int fd, ServiceAddress address, std::string id)
      : fd_(fd), address_(std::move(address)), id_(std::move(id)) {}

  int fd_ = -1;
  ServiceAddress address_;
  std::string id_;
};

class ServiceClient {
 public:
  /// `timeout_ms` bounds every exchange except wait() (which has its own);
  /// negative blocks indefinitely.
  explicit ServiceClient(ServiceAddress address, int timeout_ms = 30'000);

  /// Legacy form: a bare path is a Unix socket.
  explicit ServiceClient(std::filesystem::path socket_path,
                         int timeout_ms = 30'000);

  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  [[nodiscard]] const ServiceAddress& address() const { return address_; }

  /// Opt into one persistent connection for single-line commands. A no-op
  /// against daemons without the `persist` capability; any channel error
  /// falls back to one-shot for that request and re-dials on the next.
  void set_persistent(bool enabled) { persistent_enabled_ = enabled; }

  /// The daemon's HELLO reply, probed once per client and cached. Never
  /// throws out of the probe itself: a dead instance or a pre-HELLO daemon
  /// both read as `supported == false`.
  [[nodiscard]] const ServiceHello& hello() const;

  /// Raw exchange (request must be newline-terminated; SUBMIT carries the
  /// spec as the body). Returns the raw response. Throws ServiceError{kIo}
  /// when the exchange itself fails.
  [[nodiscard]] std::string request(const std::string& request_text) const;

  /// True iff a live daemon answered the PING. Never throws: a dead socket,
  /// a stale socket file, or a timeout all read as "not up".
  [[nodiscard]] bool ping() const noexcept;

  /// SUBMIT `spec_text`; returns the daemon-assigned campaign id. A
  /// non-empty `traceparent` (format_traceparent form) rides as the
  /// `traceparent=` token so the daemon parents its spans on the caller's.
  /// A non-zero `deadline_ms` rides as the `deadline_ms=` token: the daemon
  /// sheds the submit up front if it cannot plausibly finish within that
  /// relative deadline. Throws ServiceError — kBusy, kDraining, and
  /// kOverdeadline are the retryable-by-policy refusals.
  [[nodiscard]] std::string submit(const std::string& spec_text,
                                   int priority = 0,
                                   const std::string& name_hint = "",
                                   const std::string& traceparent = "",
                                   std::uint64_t deadline_ms = 0) const;

  /// STATUS of one campaign. Throws ServiceError (e.g. unknown id).
  [[nodiscard]] RemoteCampaignStatus status(const std::string& id) const;

  /// WAIT for a terminal state; returns it ("finished", ...). `timeout_ms`
  /// defaults to blocking indefinitely — campaigns take as long as they
  /// take; pass a bound when polling STATUS first.
  [[nodiscard]] std::string wait(const std::string& id,
                                 int timeout_ms = -1) const;

  /// Send `WAIT <id>` on a fresh connection and return without reading the
  /// reply — wait() split in two, so one thread can supervise many parked
  /// WAITs. Never rides the persistent channel (a parked WAIT would wedge
  /// every other exchange). Throws ServiceError{kIo} when the dial or the
  /// write fails.
  [[nodiscard]] PendingWait start_wait(const std::string& id) const;

  /// CANCEL a campaign. Throws ServiceError on unknown ids.
  void cancel(const std::string& id) const;

  /// DRAIN: tell the daemon to stop admitting and exit 0 once its backlog
  /// is finished or journaled — the rolling-upgrade handoff. Idempotent on
  /// the daemon side. Throws ServiceError when the exchange fails.
  void drain() const;

  /// LIST: raw response body, one status line per campaign after `OK <n>`.
  [[nodiscard]] std::string list() const;

  /// SHARDREPORT: the campaign's mergeable report (campaign_report_io
  /// format, ready for parse_campaign_report). The campaign must be
  /// terminal. Throws ServiceError otherwise.
  [[nodiscard]] std::string fetch_shard_report(const std::string& id) const;

  /// CACHE: result-cache statistics. Throws ServiceError (e.g. disabled).
  [[nodiscard]] RemoteCacheStats cache_stats() const;

  /// METRICS: the instance's process-wide metrics. Text exposition (the
  /// default, parseable with parse_metrics_text and mergeable across
  /// instances) or JSON with `json=true`. Returns the payload without the
  /// leading "OK <format>" line.
  [[nodiscard]] std::string fetch_metrics(bool json = false) const;

  /// TRACESPANS: the instance's buffered trace spans (open ones included)
  /// plus its reply-time clock. A `trace_id` asks for that trace's closed
  /// spans only; a daemon that predates the filter ignores it and sends
  /// everything, so callers that need one trace still filter the reply.
  /// Throws ServiceError on refusal or a reply that does not parse.
  [[nodiscard]] RemoteTraceSpans fetch_trace_spans(
      std::optional<std::uint64_t> trace_id = std::nullopt) const;

 private:
  /// True when `request_text` should ride the persistent channel (enabled,
  /// single line, daemon advertises `persist`).
  [[nodiscard]] bool use_persistent(const std::string& request_text) const;
  /// One exchange over the persistent channel (dialing + PERSIST handshake
  /// on first use). Throws CheckError on any channel failure — the caller
  /// closes the channel and falls back to one-shot.
  [[nodiscard]] std::string persistent_request(
      const std::string& request_text) const;
  void close_persistent() const;
  /// Buffered reads from the persistent channel, bounded by `deadline`.
  [[nodiscard]] std::string persistent_read_line(
      std::chrono::steady_clock::time_point deadline) const;
  [[nodiscard]] std::string persistent_read_exact(
      std::size_t n, std::chrono::steady_clock::time_point deadline) const;
  void persistent_fill(std::chrono::steady_clock::time_point deadline) const;

  ServiceAddress address_;
  int timeout_ms_;
  bool persistent_enabled_ = false;
  // Transport caches — logically const (no observable protocol state).
  mutable std::optional<ServiceHello> hello_;
  mutable int persist_fd_ = -1;
  mutable std::string persist_buf_;  ///< bytes read but not yet consumed
};

/// Socketless submission: atomically drop `text` into `root`/spool as
/// `<stem>-<pid>[-<n>].spec` for the daemon's next poll. The pid keeps
/// concurrent submitters of same-named specs on distinct targets, the -n
/// loop uniquifies retries within one process, and write_file_atomic
/// publishes the .spec whole. Returns the spooled path.
std::filesystem::path spool_submit_spec(const std::filesystem::path& root,
                                        const std::string& stem,
                                        const std::string& text);

}  // namespace emutile
