#pragma once
/// \file address.hpp
/// Fleet addressing: one URI type naming every way to reach a serviced
/// instance, shared by ServiceClient, ServiceEndpoint, the fleet config, the
/// campaign coordinator's control plane, and the tools.
///
///   unix:/run/emutile/serviced.sock  Unix-domain stream socket — the full
///                                    wire protocol, single host
///   tcp:host:port                    TCP stream socket — the full wire
///                                    protocol, cross-host. Listening on
///                                    port 0 takes an ephemeral port; read
///                                    the real one back with
///                                    bound_service_address().
///
/// A bare string (no scheme) names a Unix socket path. Everything that
/// serializes an address emits the canonical `to_string()` URI form.

#include <cstdint>
#include <filesystem>
#include <string>

namespace emutile {

enum class AddressKind : std::uint8_t {
  kUnix,  ///< Unix-domain stream socket
  kTcp,   ///< TCP stream socket
};

[[nodiscard]] const char* to_string(AddressKind kind);

struct ServiceAddress {
  AddressKind kind = AddressKind::kUnix;
  std::filesystem::path path;  ///< kUnix only: socket file
  std::string host;            ///< kTcp only
  std::uint16_t port = 0;      ///< kTcp only (0 = ephemeral when listening)

  [[nodiscard]] static ServiceAddress unix_socket(std::filesystem::path p);
  [[nodiscard]] static ServiceAddress tcp(std::string host,
                                          std::uint16_t port);

  /// Canonical URI form: `unix:/path`, `tcp:host:port`.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ServiceAddress&,
                         const ServiceAddress&) = default;
};

/// Parse an address URI. A bare string with no scheme is a Unix socket path.
/// Throws CheckError on malformed input (unknown scheme, empty path, a tcp
/// address without `host:port`, a port outside [0, 65535]).
[[nodiscard]] ServiceAddress parse_service_address(const std::string& text);

/// Connect a blocking stream socket to `address`. TCP connections get
/// TCP_NODELAY. Returns the connected fd; throws CheckError on failure.
[[nodiscard]] int dial_service_address(const ServiceAddress& address);

/// Bind and listen on `address`. A stale Unix socket file is replaced;
/// TCP listeners get SO_REUSEADDR, and port 0 binds an ephemeral port (read
/// it back with bound_service_address). The listen fd is non-blocking, for
/// the endpoint's reactor (which gives its accepted fds the same flag via
/// accept4). Returns the listening fd; throws CheckError on failure.
[[nodiscard]] int listen_service_address(const ServiceAddress& address,
                                         int backlog);

/// The address a listening fd actually bound — `requested` with the real
/// port filled in for tcp:...:0 listeners, `requested` unchanged otherwise.
[[nodiscard]] ServiceAddress bound_service_address(
    const ServiceAddress& requested, int listen_fd);

/// Set TCP_NODELAY on `fd`. Best-effort: fails harmlessly on non-TCP
/// sockets.
void set_nodelay(int fd);

/// Read from `fd` until EOF. Returns false on read errors, or — when
/// `timeout_ms` is non-negative — if EOF has not arrived by the deadline.
/// Negative timeout blocks indefinitely.
bool fd_read_all(int fd, std::string& out, int timeout_ms = -1);

/// Write all of `data` (MSG_NOSIGNAL: a closed peer yields false, never a
/// process-killing SIGPIPE). Returns false on write errors.
bool fd_write_all(int fd, const std::string& data);

}  // namespace emutile
