#include "service/address.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/check.hpp"
#include "util/parse_number.hpp"

namespace emutile {

namespace {

sockaddr_un make_unix_sockaddr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = path.string();
  EMUTILE_CHECK(p.size() < sizeof addr.sun_path,
                "socket path too long (" << p.size() << " bytes): " << p);
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  return addr;
}

/// getaddrinfo wrapper; caller frees with freeaddrinfo. `passive` asks for
/// bindable addresses (listeners), otherwise connectable ones.
addrinfo* resolve_tcp(const ServiceAddress& address, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.empty() ? nullptr
                                                    : address.host.c_str(),
                               port.c_str(), &hints, &result);
  EMUTILE_CHECK(rc == 0, "cannot resolve " << address.to_string() << ": "
                                           << ::gai_strerror(rc));
  return result;
}

}  // namespace

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

const char* to_string(AddressKind kind) {
  switch (kind) {
    case AddressKind::kUnix: return "unix";
    case AddressKind::kTcp: return "tcp";
  }
  return "?";
}

ServiceAddress ServiceAddress::unix_socket(std::filesystem::path p) {
  ServiceAddress a;
  a.kind = AddressKind::kUnix;
  a.path = std::move(p);
  return a;
}

ServiceAddress ServiceAddress::tcp(std::string host, std::uint16_t port) {
  ServiceAddress a;
  a.kind = AddressKind::kTcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

std::string ServiceAddress::to_string() const {
  switch (kind) {
    case AddressKind::kUnix: return "unix:" + path.string();
    case AddressKind::kTcp:
      return "tcp:" + host + ":" + std::to_string(port);
  }
  return "?";
}

ServiceAddress parse_service_address(const std::string& text) {
  EMUTILE_CHECK(!text.empty(), "empty service address");
  if (text.rfind("unix:", 0) == 0) {
    EMUTILE_CHECK(text.size() > 5, "service address '"
                                       << text
                                       << "' needs a path after 'unix:'");
    return ServiceAddress::unix_socket(text.substr(5));
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    // host:port, splitting at the last colon so IPv6 literals keep theirs.
    const std::size_t colon = rest.rfind(':');
    EMUTILE_CHECK(colon != std::string::npos && colon > 0 &&
                      colon + 1 < rest.size(),
                  "tcp service address '" << text
                                          << "' must be tcp:host:port");
    const std::string port_text = rest.substr(colon + 1);
    const auto port = parse_number<std::uint16_t>(port_text);
    EMUTILE_CHECK(port.has_value(),
                  "bad tcp port '" << port_text << "' in '" << text << "'");
    return ServiceAddress::tcp(rest.substr(0, colon), *port);
  }
  EMUTILE_CHECK(text.find(':') == std::string::npos || text[0] == '/' ||
                    text.rfind("./", 0) == 0,
                "unknown address scheme in '"
                    << text << "' (unix:/path, tcp:host:port)");
  return ServiceAddress::unix_socket(text);
}

int dial_service_address(const ServiceAddress& address) {
  if (address.kind == AddressKind::kUnix) {
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EMUTILE_CHECK(fd >= 0, "cannot create socket: " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd);
      EMUTILE_CHECK(false, "cannot connect to " << address.to_string() << ": "
                                                << std::strerror(err));
    }
    return fd;
  }
  addrinfo* candidates = resolve_tcp(address, /*passive=*/false);
  int last_err = 0;
  for (const addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family,
                            ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(candidates);
      set_nodelay(fd);
      return fd;
    }
    last_err = errno;
    ::close(fd);
  }
  ::freeaddrinfo(candidates);
  EMUTILE_CHECK(false, "cannot connect to " << address.to_string() << ": "
                                            << std::strerror(last_err));
  return -1;  // unreachable
}

int listen_service_address(const ServiceAddress& address, int backlog) {
  const int type = SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK;
  if (address.kind == AddressKind::kUnix) {
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    std::filesystem::remove(address.path);  // replace a stale socket file
    const int fd = ::socket(AF_UNIX, type, 0);
    EMUTILE_CHECK(fd >= 0, "cannot create socket: " << std::strerror(errno));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, backlog) != 0) {
      const int err = errno;
      ::close(fd);
      EMUTILE_CHECK(false, "cannot listen on " << address.to_string() << ": "
                                               << std::strerror(err));
    }
    return fd;
  }
  addrinfo* candidates = resolve_tcp(address, /*passive=*/true);
  int last_err = 0;
  for (const addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | type,
                            ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      ::freeaddrinfo(candidates);
      return fd;
    }
    last_err = errno;
    ::close(fd);
  }
  ::freeaddrinfo(candidates);
  EMUTILE_CHECK(false, "cannot listen on " << address.to_string() << ": "
                                           << std::strerror(last_err));
  return -1;  // unreachable
}

ServiceAddress bound_service_address(const ServiceAddress& requested,
                                     int listen_fd) {
  if (requested.kind != AddressKind::kTcp || requested.port != 0)
    return requested;
  sockaddr_storage storage{};
  socklen_t len = sizeof storage;
  ServiceAddress bound = requested;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&storage), &len) !=
      0)
    return requested;
  if (storage.ss_family == AF_INET)
    bound.port =
        ntohs(reinterpret_cast<const sockaddr_in*>(&storage)->sin_port);
  else if (storage.ss_family == AF_INET6)
    bound.port =
        ntohs(reinterpret_cast<const sockaddr_in6*>(&storage)->sin6_port);
  return bound;
}

bool fd_read_all(int fd, std::string& out, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  for (;;) {
    if (timeout_ms >= 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return false;
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;  // EINTR or the deadline: re-check it
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) return true;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
}

bool fd_write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that closed before reading must yield EPIPE, not
    // a process-killing SIGPIPE (the daemon installs no handler for it).
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace emutile
