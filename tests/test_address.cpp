// Address tests: the ServiceAddress URI grammar (parse/to_string
// round-trips, the bare Unix-socket path form, malformed-input rejection) and
// the dial/listen plumbing on real sockets — Unix and TCP loopback,
// ephemeral-port discovery through bound_service_address.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "service/address.hpp"
#include "util/check.hpp"

namespace emutile {
namespace {

namespace fs = std::filesystem;

TEST(ServiceAddressParse, UriFormsRoundTripThroughToString) {
  const ServiceAddress unix_addr =
      parse_service_address("unix:/run/emutile/serviced.sock");
  EXPECT_EQ(unix_addr.kind, AddressKind::kUnix);
  EXPECT_EQ(unix_addr.path, "/run/emutile/serviced.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/run/emutile/serviced.sock");

  const ServiceAddress tcp_addr = parse_service_address("tcp:build-07:7733");
  EXPECT_EQ(tcp_addr.kind, AddressKind::kTcp);
  EXPECT_EQ(tcp_addr.host, "build-07");
  EXPECT_EQ(tcp_addr.port, 7733);
  EXPECT_EQ(tcp_addr.to_string(), "tcp:build-07:7733");

  // parse(to_string()) is the identity on every kind.
  for (const ServiceAddress& addr : {unix_addr, tcp_addr})
    EXPECT_EQ(parse_service_address(addr.to_string()), addr);
}

TEST(ServiceAddressParse, BareStringsKeepTheirLegacyMeaning) {
  // A bare path is a Unix socket.
  const ServiceAddress sock = parse_service_address("/tmp/d.sock");
  EXPECT_EQ(sock.kind, AddressKind::kUnix);
  EXPECT_EQ(sock.path, "/tmp/d.sock");
  // Relative paths stay addressable.
  EXPECT_EQ(parse_service_address("./serviced.sock").kind, AddressKind::kUnix);
}

TEST(ServiceAddressParse, MalformedInputsThrow) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(static_cast<void>(parse_service_address(text)), CheckError)
        << text;
  };
  reject("");                  // empty
  reject("unix:");             // empty path
  reject("tcp:");              // no host:port
  reject("tcp:lonelyhost");    // no port
  reject("tcp::7733");         // empty host
  reject("tcp:host:");         // empty port
  reject("tcp:host:banana");   // non-numeric port
  reject("tcp:host:65536");    // port out of range
  reject("http:example.com");  // unknown scheme
  reject("spool:/x");          // spool directories are not addresses
  // A bare string containing ':' that is not a path is an unknown scheme,
  // not silently a Unix socket named "http".
  reject("host:7733");
}

TEST(ServiceAddressParse, Ipv6StyleHostsSplitOnTheLastColon) {
  const ServiceAddress addr = parse_service_address("tcp:::1:9000");
  EXPECT_EQ(addr.host, "::1");
  EXPECT_EQ(addr.port, 9000);
}

/// One byte each way over a freshly dialed connection proves listen + dial
/// actually wired two endpoints together.
void expect_echo(int listen_fd, const ServiceAddress& dial_to) {
  std::thread server([listen_fd] {
    // The listener is non-blocking: poll-accept briefly.
    int conn = -1;
    for (int i = 0; i < 2000 && conn < 0; ++i) {
      conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(conn, 0);
    std::string request;
    EXPECT_TRUE(fd_read_all(conn, request, /*timeout_ms=*/5'000));
    EXPECT_EQ(request, "ping\n");
    EXPECT_TRUE(fd_write_all(conn, "pong\n"));
    ::close(conn);
  });
  const int fd = dial_service_address(dial_to);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(fd_write_all(fd, "ping\n"));
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  EXPECT_TRUE(fd_read_all(fd, reply, /*timeout_ms=*/5'000));
  EXPECT_EQ(reply, "pong\n");
  ::close(fd);
  server.join();
}

TEST(ServiceAddressSockets, UnixListenAndDialExchangeBytes) {
  const fs::path sock =
      fs::path(::testing::TempDir()) / "emutile-addr-unix.sock";
  fs::remove(sock);
  const ServiceAddress addr = ServiceAddress::unix_socket(sock);
  const int listen_fd =
      listen_service_address(addr, /*backlog=*/4);
  ASSERT_GE(listen_fd, 0);
  EXPECT_EQ(bound_service_address(addr, listen_fd), addr);
  expect_echo(listen_fd, addr);
  ::close(listen_fd);
  fs::remove(sock);
}

TEST(ServiceAddressSockets, TcpEphemeralPortIsDiscoverableAndDialable) {
  const ServiceAddress requested = ServiceAddress::tcp("127.0.0.1", 0);
  const int listen_fd =
      listen_service_address(requested, /*backlog=*/4);
  ASSERT_GE(listen_fd, 0);
  const ServiceAddress bound = bound_service_address(requested, listen_fd);
  EXPECT_EQ(bound.kind, AddressKind::kTcp);
  EXPECT_EQ(bound.host, "127.0.0.1");
  EXPECT_NE(bound.port, 0) << "port 0 must resolve to the real bound port";
  expect_echo(listen_fd, bound);
  ::close(listen_fd);
}

TEST(ServiceAddressSockets, StaleUnixSocketFileIsReplacedOnListen) {
  const fs::path sock =
      fs::path(::testing::TempDir()) / "emutile-addr-stale.sock";
  const ServiceAddress addr = ServiceAddress::unix_socket(sock);
  const int first =
      listen_service_address(addr, /*backlog=*/4);
  ::close(first);  // fd gone, socket file left behind — a crashed daemon
  ASSERT_TRUE(fs::exists(sock));
  const int second =
      listen_service_address(addr, /*backlog=*/4);
  ASSERT_GE(second, 0) << "a stale socket file must not block a restart";
  expect_echo(second, addr);
  ::close(second);
  fs::remove(sock);
}

TEST(ServiceAddressSockets, DialFailuresThrowWithTheAddressInTheMessage) {
  try {
    static_cast<void>(dial_service_address(
        ServiceAddress::unix_socket("/nonexistent/emutile.sock")));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unix:/nonexistent/emutile.sock"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace emutile
