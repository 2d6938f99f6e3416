#include "service/service_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/trace_io.hpp"
#include "service/service_endpoint.hpp"
#include "util/file_io.hpp"
#include "util/parse_number.hpp"

namespace emutile {

namespace {

/// Parse `key=<number>` where the token is known to start with `key=`.
std::size_t keyed_count(const std::string& token, const char* key) {
  const std::string prefix = std::string(key) + "=";
  const auto value =
      token.rfind(prefix, 0) == 0
          ? parse_number<std::size_t>(
                std::string_view(token).substr(prefix.size()))
          : std::nullopt;
  EMUTILE_CHECK(value.has_value(), "malformed status token '"
                                       << token << "' (expected " << key
                                       << "=<count>)");
  return *value;
}

/// First line of a (possibly multi-line) response, for error messages.
std::string first_line(const std::string& response) {
  const std::size_t eol = response.find('\n');
  return eol == std::string::npos ? response : response.substr(0, eol);
}

/// Strip "OK " and the trailing newline off a single-line response; throw
/// ServiceError describing `what` on an ERR or malformed reply, with the
/// code mapped from the distinguished `ERR <code>` tokens.
std::string expect_ok(const ServiceAddress& address,
                      const std::string& response, const std::string& what) {
  if (response.rfind("OK ", 0) != 0) {
    ServiceErrorCode code = ServiceErrorCode::kProtocol;
    const std::string line = first_line(response);
    if (response.rfind("ERR draining", 0) == 0) {
      code = ServiceErrorCode::kDraining;
    } else if (response.rfind("ERR busy", 0) == 0) {
      // Pre-v2 daemons fold the drain shed into `ERR busy ... draining ...`.
      code = line.find("draining") != std::string::npos
                 ? ServiceErrorCode::kDraining
                 : ServiceErrorCode::kBusy;
    } else if (response.rfind("ERR overdeadline", 0) == 0) {
      code = ServiceErrorCode::kOverdeadline;
    }
    throw ServiceError(
        code, what + " via " + address.to_string() + " refused: " +
                  (response.empty() ? std::string("<empty response>") : line));
  }
  const std::size_t eol = response.find('\n');
  return response.substr(3, eol == std::string::npos ? std::string::npos
                                                     : eol - 3);
}

}  // namespace

const char* to_string(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kBusy: return "busy";
    case ServiceErrorCode::kOverdeadline: return "overdeadline";
    case ServiceErrorCode::kDraining: return "draining";
    case ServiceErrorCode::kProtocol: return "protocol";
    case ServiceErrorCode::kIo: return "io";
  }
  return "?";
}

bool ServiceHello::has_cap(const std::string& cap) const {
  return std::find(caps.begin(), caps.end(), cap) != caps.end();
}

ServiceClient::ServiceClient(ServiceAddress address, int timeout_ms)
    : address_(std::move(address)), timeout_ms_(timeout_ms) {}

ServiceClient::ServiceClient(std::filesystem::path socket_path, int timeout_ms)
    : ServiceClient(ServiceAddress::unix_socket(std::move(socket_path)),
                    timeout_ms) {}

ServiceClient::~ServiceClient() { close_persistent(); }

const ServiceHello& ServiceClient::hello() const {
  if (hello_) return *hello_;
  ServiceHello h;
  std::string response;
  try {
    response = endpoint_request(address_, "HELLO\n", timeout_ms_);
  } catch (const std::exception&) {
    hello_ = h;  // unreachable instance: not supported, retry via new client
    return *hello_;
  }
  // `OK proto=<n> id=<id> mode=<mode> caps=<c1,c2,...>`. Anything else —
  // notably a pre-v2 daemon's `ERR unknown command 'HELLO'` — reads as the
  // v1 one-shot-only subset.
  if (response.rfind("OK ", 0) == 0) {
    h.supported = true;
    std::istringstream in(first_line(response).substr(3));
    std::string token;
    while (in >> token) {
      if (token.rfind("proto=", 0) == 0)
        h.proto = static_cast<int>(keyed_count(token, "proto"));
      else if (token.rfind("id=", 0) == 0)
        h.id = token.substr(3);
      else if (token.rfind("mode=", 0) == 0)
        h.mode = token.substr(5);
      else if (token.rfind("caps=", 0) == 0) {
        std::istringstream caps(token.substr(5));
        std::string cap;
        while (std::getline(caps, cap, ','))
          if (!cap.empty()) h.caps.push_back(cap);
      }
    }
  }
  hello_ = std::move(h);
  return *hello_;
}

// ---- persistent channel ----------------------------------------------------

bool ServiceClient::use_persistent(const std::string& request_text) const {
  if (!persistent_enabled_) return false;
  // Single-line commands only: SUBMIT bodies need the one-shot half-close.
  if (request_text.size() < 2 || request_text.back() != '\n' ||
      request_text.find('\n') != request_text.size() - 1)
    return false;
  const ServiceHello& h = hello();
  return h.supported && h.has_cap("persist");
}

void ServiceClient::close_persistent() const {
  if (persist_fd_ >= 0) {
    ::close(persist_fd_);
    persist_fd_ = -1;
  }
  persist_buf_.clear();
}

void ServiceClient::persistent_fill(
    std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    if (timeout_ms_ >= 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      EMUTILE_CHECK(remaining > 0, "persistent channel to "
                                       << address_.to_string()
                                       << " timed out");
      pollfd pfd{persist_fd_, POLLIN, 0};
      const int ready = ::poll(
          &pfd, 1, static_cast<int>(std::min<long long>(remaining, 100)));
      EMUTILE_CHECK(ready >= 0 || errno == EINTR,
                    "persistent channel to " << address_.to_string()
                                             << " poll failed: "
                                             << std::strerror(errno));
      if (ready <= 0) continue;
    }
    char buf[4096];
    const ssize_t n = ::read(persist_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    EMUTILE_CHECK(n > 0, "persistent channel to " << address_.to_string()
                                                  << (n == 0
                                                          ? " closed by peer"
                                                          : " read failed"));
    persist_buf_.append(buf, static_cast<std::size_t>(n));
    return;
  }
}

std::string ServiceClient::persistent_read_line(
    std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    const std::size_t eol = persist_buf_.find('\n');
    if (eol != std::string::npos) {
      std::string line = persist_buf_.substr(0, eol);
      persist_buf_.erase(0, eol + 1);
      return line;
    }
    persistent_fill(deadline);
  }
}

std::string ServiceClient::persistent_read_exact(
    std::size_t n, std::chrono::steady_clock::time_point deadline) const {
  while (persist_buf_.size() < n) persistent_fill(deadline);
  std::string payload = persist_buf_.substr(0, n);
  persist_buf_.erase(0, n);
  return payload;
}

std::string ServiceClient::persistent_request(
    const std::string& request_text) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            timeout_ms_ >= 0 ? timeout_ms_ : 0);
  if (persist_fd_ < 0) {
    persist_fd_ = dial_service_address(address_);
    persist_buf_.clear();
    EMUTILE_CHECK(fd_write_all(persist_fd_, "PERSIST\n"),
                  "persistent handshake write to " << address_.to_string()
                                                   << " failed");
    const std::string ack = persistent_read_line(deadline);
    EMUTILE_CHECK(ack == "OK persist", "persistent handshake with "
                                           << address_.to_string()
                                           << " refused: " << ack);
  }
  EMUTILE_CHECK(fd_write_all(persist_fd_, request_text),
                "persistent write to " << address_.to_string() << " failed");
  // Responses are length-framed: `#<bytes>\n<payload>`.
  const std::string header = persistent_read_line(deadline);
  EMUTILE_CHECK(!header.empty() && header[0] == '#',
                "persistent channel to " << address_.to_string()
                                         << " sent a malformed frame header: "
                                         << header);
  const auto n =
      parse_number<std::size_t>(std::string_view(header).substr(1));
  EMUTILE_CHECK(n.has_value(), "persistent channel to "
                                   << address_.to_string()
                                   << " sent a malformed frame header: "
                                   << header);
  return persistent_read_exact(*n, deadline);
}

// ---- request plumbing ------------------------------------------------------

std::string ServiceClient::request(const std::string& request_text) const {
  if (use_persistent(request_text)) {
    try {
      return persistent_request(request_text);
    } catch (const std::exception&) {
      // Any channel hiccup: drop it and fall back to one-shot for this
      // request. The next request re-dials the channel.
      close_persistent();
    }
  }
  try {
    return endpoint_request(address_, request_text, timeout_ms_);
  } catch (const ServiceError&) {
    throw;
  } catch (const CheckError& e) {
    throw ServiceError(ServiceErrorCode::kIo, e.what());
  }
}

bool ServiceClient::ping() const noexcept {
  try {
    return request("PING\n") == "OK pong\n";
  } catch (...) {
    return false;
  }
}

std::string ServiceClient::submit(const std::string& spec_text, int priority,
                                  const std::string& name_hint,
                                  const std::string& traceparent,
                                  std::uint64_t deadline_ms) const {
  std::ostringstream os;
  os << "SUBMIT " << priority;
  if (!name_hint.empty()) os << " " << name_hint;
  if (!traceparent.empty()) os << " traceparent=" << traceparent;
  if (deadline_ms > 0) os << " deadline_ms=" << deadline_ms;
  os << "\n" << spec_text;
  return expect_ok(address_, request(os.str()), "SUBMIT");
}

RemoteCampaignStatus ServiceClient::status(const std::string& id) const {
  const std::string line =
      expect_ok(address_, request("STATUS " + id + "\n"), "STATUS " + id);
  // <id> <state> <done>/<total> hits=<n> misses=<n> snapshots=<n>
  std::istringstream in(line);
  RemoteCampaignStatus s;
  std::string progress, hits, misses, snapshots;
  EMUTILE_CHECK(in >> s.id >> s.state >> progress >> hits >> misses >>
                    snapshots,
                "malformed STATUS line from " << address_.to_string() << ": "
                                              << line);
  const std::size_t slash = progress.find('/');
  const std::string_view fraction(progress);
  const auto done = parse_number<std::size_t>(fraction.substr(0, slash));
  const auto total =
      slash == std::string::npos
          ? std::nullopt
          : parse_number<std::size_t>(fraction.substr(slash + 1));
  EMUTILE_CHECK(done && total,
                "malformed progress '" << progress << "' in STATUS line");
  s.sessions_done = *done;
  s.sessions_total = *total;
  s.cache_hits = keyed_count(hits, "hits");
  s.cache_misses = keyed_count(misses, "misses");
  s.snapshots = keyed_count(snapshots, "snapshots");
  // Daemon-level fields appended after the per-campaign ones. Optional so
  // the client still parses replies from daemons that predate them.
  std::string token;
  while (in >> token) {
    if (token.rfind("replayed=", 0) == 0)
      s.replayed = keyed_count(token, "replayed");
    else if (token.rfind("uptime_s=", 0) == 0)
      s.daemon_uptime_s = keyed_count(token, "uptime_s");
    else if (token.rfind("queued=", 0) == 0)
      s.daemon_queued = keyed_count(token, "queued");
    else if (token.rfind("running=", 0) == 0)
      s.daemon_running = keyed_count(token, "running");
    else if (token.rfind("draining=", 0) == 0)
      s.daemon_draining = keyed_count(token, "draining") != 0;
  }
  return s;
}

std::string ServiceClient::wait(const std::string& id, int timeout_ms) const {
  // WAIT takes its own (usually unbounded) timeout, so it bypasses the
  // persistent channel — a parked wait would wedge every other exchange.
  return start_wait(id).read_reply(timeout_ms);
}

PendingWait ServiceClient::start_wait(const std::string& id) const {
  int fd = -1;
  try {
    fd = dial_service_address(address_);
  } catch (const CheckError& e) {
    throw ServiceError(ServiceErrorCode::kIo, e.what());
  }
  PendingWait pending(fd, address_, id);
  if (!fd_write_all(fd, "WAIT " + id + "\n"))
    throw ServiceError(ServiceErrorCode::kIo,
                       "WAIT " + id + " to " + address_.to_string() +
                           " failed mid-flight");
  ::shutdown(fd, SHUT_WR);  // half-close delimits the request
  return pending;
}

PendingWait::PendingWait(PendingWait&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      address_(std::move(other.address_)),
      id_(std::move(other.id_)) {}

PendingWait& PendingWait::operator=(PendingWait&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    address_ = std::move(other.address_);
    id_ = std::move(other.id_);
  }
  return *this;
}

void PendingWait::close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

std::string PendingWait::read_reply(int timeout_ms) {
  EMUTILE_CHECK(fd_ >= 0, "WAIT " << id_ << " has no open connection");
  std::string response;
  const bool received = fd_read_all(fd_, response, timeout_ms);
  close();
  if (!received)
    throw ServiceError(ServiceErrorCode::kIo,
                       "WAIT " + id_ + " to " + address_.to_string() +
                           " failed mid-flight" +
                           (timeout_ms >= 0 ? " or timed out" : ""));
  return expect_ok(address_, response, "WAIT " + id_);
}

void ServiceClient::cancel(const std::string& id) const {
  static_cast<void>(
      expect_ok(address_, request("CANCEL " + id + "\n"), "CANCEL " + id));
}

void ServiceClient::drain() const {
  static_cast<void>(expect_ok(address_, request("DRAIN\n"), "DRAIN"));
}

std::string ServiceClient::list() const {
  const std::string response = request("LIST\n");
  static_cast<void>(expect_ok(address_, response, "LIST"));
  return response;
}

std::string ServiceClient::fetch_shard_report(const std::string& id) const {
  const std::string response = request("SHARDREPORT " + id + "\n");
  static_cast<void>(expect_ok(address_, response, "SHARDREPORT " + id));
  const std::size_t eol = response.find('\n');
  EMUTILE_CHECK(eol != std::string::npos && eol + 1 < response.size(),
                "SHARDREPORT " << id << " from " << address_.to_string()
                               << " carried no report body");
  return response.substr(eol + 1);
}

RemoteCacheStats ServiceClient::cache_stats() const {
  const std::string line = expect_ok(address_, request("CACHE\n"), "CACHE");
  std::istringstream in(line);
  std::string entries, bytes, hits, misses, stores;
  EMUTILE_CHECK(in >> entries >> bytes >> hits >> misses >> stores,
                "malformed CACHE line from " << address_.to_string() << ": "
                                             << line);
  RemoteCacheStats s;
  s.entries = keyed_count(entries, "entries");
  s.bytes = keyed_count(bytes, "bytes");
  s.hits = keyed_count(hits, "hits");
  s.misses = keyed_count(misses, "misses");
  s.stores = keyed_count(stores, "stores");
  return s;
}

std::string ServiceClient::fetch_metrics(bool json) const {
  const std::string response =
      request(json ? "METRICS json\n" : "METRICS\n");
  static_cast<void>(expect_ok(address_, response, "METRICS"));
  const std::size_t eol = response.find('\n');
  return eol == std::string::npos ? std::string() : response.substr(eol + 1);
}

RemoteTraceSpans ServiceClient::fetch_trace_spans(
    std::optional<std::uint64_t> trace_id) const {
  const std::string response = request(
      trace_id ? "TRACESPANS " + format_trace_id(*trace_id) + "\n"
               : std::string("TRACESPANS\n"));
  const std::string line = expect_ok(address_, response, "TRACESPANS");
  // `OK now_us=<n> spans=<n>` followed by the emutile-trace text body.
  std::istringstream in(line);
  std::string now_tok, count_tok;
  EMUTILE_CHECK(in >> now_tok >> count_tok,
                "malformed TRACESPANS line from " << address_.to_string()
                                                  << ": " << line);
  RemoteTraceSpans result;
  result.now_us = keyed_count(now_tok, "now_us");
  const std::size_t declared = keyed_count(count_tok, "spans");
  const std::size_t eol = response.find('\n');
  const std::string body =
      eol == std::string::npos ? std::string() : response.substr(eol + 1);
  result.spans = parse_trace_spans_text(body);
  EMUTILE_CHECK(result.spans.size() == declared,
                "TRACESPANS from " << address_.to_string() << " declared "
                                   << declared << " spans, body carried "
                                   << result.spans.size());
  return result;
}

std::filesystem::path spool_submit_spec(const std::filesystem::path& root,
                                        const std::string& stem,
                                        const std::string& text) {
  const std::filesystem::path spool = root / "spool";
  std::filesystem::create_directories(spool);
  const std::string unique_stem = stem + "-" + std::to_string(::getpid());
  std::filesystem::path target;
  for (int n = 0;; ++n) {
    target =
        spool / (unique_stem + (n == 0 ? "" : "-" + std::to_string(n)) +
                 ".spec");
    if (!std::filesystem::exists(target)) break;
  }
  write_file_atomic(target, text);
  return target;
}

}  // namespace emutile
