/// Submit-storm bench: how much concurrent front-end load can a serviced
/// instance absorb, and what does the endpoint add over a direct call?
///
/// Two passes over identically warmed in-process SessionServices:
///
///   wire    An epoll-driven load generator (a few threads multiplexing all
///           connections, so the generator stays much lighter than the
///           server under test) keeps N one-shot connections in flight
///           against the service's ServiceEndpoint with a mixed workload —
///           SUBMITs of a cache-warm spec plus STATUS/PING/LIST probes.
///   direct  The same SUBMITs of the same mix, as SessionService::submit_text
///           calls on one thread.
///
/// The service runs with a bounded campaign queue, so the storm also
/// exercises admission control: most SUBMITs are shed with `ERR busy` (and
/// deadline-carrying ones with `ERR overdeadline`) — a shed reply is a
/// served reply, and the bench counts it as front-end throughput. Reported:
/// SUBMIT replies/s, reply p50/p99, shed rate and connect retries on the
/// wire; submit_text calls/s direct.
///
///   $ ./submit_storm [--clients N] [--requests-per-client N]
///                    [--submit-pct N] [--deadline-pct N] [--generators N]
///                    [--threads N] [--max-pending N] [--endpoint-workers N]
///                    [--root DIR] [--json PATH]
///
/// Defaults: 512 concurrent clients x 16 requests, 60% SUBMIT.
/// `--json` writes the MetricsJson document the perf-regression CI lane
/// (scripts/ci.sh storm) compares against bench/baselines/submit_storm.json.
/// The guarded key is `storm_endpoint_overhead_ratio` = direct submit_text
/// calls/s over wire SUBMIT replies/s (lower is better): a same-run,
/// same-machine ratio that grows when the endpoint gets slower relative to
/// the service it fronts, unlike the absolute rates.

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"

using namespace emutile;

namespace {

/// The storm spec: tiny (one session) so accepted campaigns drain through
/// the warm result cache instead of competing with the clients for CPU.
std::string storm_spec(std::uint64_t seed) {
  std::ostringstream os;
  os << "emutile-campaign v1\ndesign 9sym\nerror_kind wrong-polarity\n"
     << "tiling 6 0.3 1 12 4\nsessions_per_scenario 1\nmaster_seed " << seed
     << "\nnum_patterns 96\nend\n";
  return os.str();
}

struct StormTally {
  std::uint64_t submit_ok = 0;
  std::uint64_t submit_busy = 0;
  std::uint64_t submit_overdeadline = 0;
  std::uint64_t probe_ok = 0;
  std::uint64_t errors = 0;      ///< unexpected replies / dead requests
  std::uint64_t connect_retries = 0;
  std::vector<double> reply_ms;  ///< round-trip per completed request

  void fold(const StormTally& other) {
    submit_ok += other.submit_ok;
    submit_busy += other.submit_busy;
    submit_overdeadline += other.submit_overdeadline;
    probe_ok += other.probe_ok;
    errors += other.errors;
    connect_retries += other.connect_retries;
    reply_ms.insert(reply_ms.end(), other.reply_ms.begin(),
                    other.reply_ms.end());
  }
};

/// The four request kinds of the storm mix. Picked deterministically per
/// (client, request) so both passes face the identical workload.
struct StormMix {
  std::string spec;      ///< the warm spec (the SUBMIT body)
  std::string submit;    ///< SUBMIT of the warm spec
  std::string hopeless;  ///< same SUBMIT with deadline_ms=1 (gets shed)
  std::string status;    ///< STATUS of the warm campaign
  int submit_pct = 60;
  int deadline_pct = 10;

  [[nodiscard]] const std::string* pick(std::size_t client, std::size_t r,
                                        bool& is_submit) const {
    const std::size_t roll = (client * 131 + r * 17) % 100;
    is_submit = roll < static_cast<std::size_t>(submit_pct);
    if (is_submit)
      return roll < static_cast<std::size_t>(deadline_pct) ? &hopeless
                                                           : &submit;
    static const std::string kPing = "PING\n";
    static const std::string kList = "LIST\n";
    return roll % 3 == 0 ? &kPing : roll % 3 == 1 ? &status : &kList;
  }
};

/// One in-flight client: a sequence of one-shot requests, each a
/// connect -> write -> half-close -> read-to-EOF cycle, driven entirely by
/// the generator's epoll loop (never a blocking call, so one generator
/// thread keeps hundreds of these in flight).
struct ClientSlot {
  enum class St : std::uint8_t { kBackoff, kConnecting, kWriting, kReading };
  int fd = -1;
  St state = St::kBackoff;
  std::size_t index = 0;  ///< global client index (workload mix key)
  std::size_t done = 0;   ///< completed requests
  std::size_t write_off = 0;
  const std::string* request = nullptr;
  bool is_submit = false;
  std::string reply;
  std::chrono::steady_clock::time_point t0;  ///< includes connect retries
  std::chrono::steady_clock::time_point retry_at;
};

class StormGenerator {
 public:
  StormGenerator(const std::filesystem::path& socket, const StormMix& mix,
                 std::size_t first_index, std::size_t count,
                 std::size_t requests_per_client)
      : mix_(mix), requests_(requests_per_client), slots_(count) {
    address_.sun_family = AF_UNIX;
    std::strncpy(address_.sun_path, socket.c_str(),
                 sizeof address_.sun_path - 1);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t i = 0; i < count; ++i) {
      slots_[i].index = first_index + i;
      slots_[i].retry_at = std::chrono::steady_clock::time_point{};
    }
  }
  ~StormGenerator() { ::close(epoll_fd_); }

  StormTally run() {
    std::size_t active = slots_.size();
    for (ClientSlot& slot : slots_) begin_request(slot, true);
    std::vector<epoll_event> events(256);
    while (active > 0) {
      const auto now = std::chrono::steady_clock::now();
      bool backing_off = false;
      for (ClientSlot& slot : slots_) {
        if (slot.done >= requests_ || slot.state != ClientSlot::St::kBackoff)
          continue;
        if (slot.retry_at <= now)
          try_connect(slot);
        backing_off |= slot.state == ClientSlot::St::kBackoff;
      }
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 backing_off ? 1 : 50);
      for (int i = 0; i < (n > 0 ? n : 0); ++i) {
        auto& slot = *static_cast<ClientSlot*>(events[i].data.ptr);
        const bool was_done = slot.done >= requests_;
        if (slot.state == ClientSlot::St::kConnecting &&
            (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)))
          on_connected(slot);
        else if (slot.state == ClientSlot::St::kWriting &&
                 (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)))
          on_writable(slot);
        else if (slot.state == ClientSlot::St::kReading &&
                 (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)))
          on_readable(slot);
        if (!was_done && slot.done >= requests_) --active;
      }
      if (n < 0 && errno != EINTR) break;
    }
    return tally_;
  }

 private:
  void begin_request(ClientSlot& slot, bool fresh) {
    slot.request = mix_.pick(slot.index, slot.done, slot.is_submit);
    slot.write_off = 0;
    slot.reply.clear();
    if (fresh) slot.t0 = std::chrono::steady_clock::now();
    try_connect(slot);
  }

  void try_connect(ClientSlot& slot) {
    slot.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
    if (slot.fd < 0) return backoff(slot);
    const int rc = ::connect(
        slot.fd, reinterpret_cast<const sockaddr*>(&address_),
        sizeof address_);
    if (rc != 0 && errno != EINPROGRESS) {
      // AF_UNIX refuses immediately when the accept backlog is full
      // (EAGAIN) or the listener briefly lags — both retry.
      ::close(slot.fd);
      slot.fd = -1;
      return backoff(slot);
    }
    slot.state =
        rc == 0 ? ClientSlot::St::kWriting : ClientSlot::St::kConnecting;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.ptr = &slot;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, slot.fd, &ev);
  }

  void backoff(ClientSlot& slot) {
    ++tally_.connect_retries;
    slot.state = ClientSlot::St::kBackoff;
    slot.retry_at =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  }

  void on_connected(ClientSlot& slot) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(slot.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      drop(slot);
      return backoff(slot);
    }
    slot.state = ClientSlot::St::kWriting;
    on_writable(slot);
  }

  void on_writable(ClientSlot& slot) {
    const std::string& request = *slot.request;
    while (slot.write_off < request.size()) {
      const ssize_t n =
          ::send(slot.fd, request.data() + slot.write_off,
                 request.size() - slot.write_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        drop(slot);
        return backoff(slot);  // server died mid-write: retry the request
      }
      slot.write_off += static_cast<std::size_t>(n);
    }
    ::shutdown(slot.fd, SHUT_WR);  // half-close delimits the request
    slot.state = ClientSlot::St::kReading;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &slot;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, slot.fd, &ev);
  }

  void on_readable(ClientSlot& slot) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(slot.fd, buf, sizeof buf);
      if (n > 0) {
        slot.reply.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EOF (or a reset, which classifies as an error below).
      finish_request(slot);
      return;
    }
  }

  void finish_request(ClientSlot& slot) {
    drop(slot);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - slot.t0)
                          .count();
    tally_.reply_ms.push_back(ms);
    const std::string& reply = slot.reply;
    if (slot.is_submit) {
      if (reply.rfind("OK ", 0) == 0) ++tally_.submit_ok;
      else if (reply.rfind("ERR busy", 0) == 0) ++tally_.submit_busy;
      else if (reply.rfind("ERR overdeadline", 0) == 0)
        ++tally_.submit_overdeadline;
      else ++tally_.errors;
    } else {
      if (reply.rfind("OK", 0) == 0) ++tally_.probe_ok;
      else ++tally_.errors;
    }
    if (++slot.done < requests_) begin_request(slot, true);
  }

  void drop(ClientSlot& slot) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, slot.fd, nullptr);
    ::close(slot.fd);
    slot.fd = -1;
  }

  sockaddr_un address_{};
  const StormMix& mix_;
  std::size_t requests_;
  int epoll_fd_ = -1;
  std::vector<ClientSlot> slots_;
  StormTally tally_;
};

struct StormResult {
  double wall_s = 0.0;
  StormTally tally;

  [[nodiscard]] std::uint64_t submit_replies() const {
    return tally.submit_ok + tally.submit_busy + tally.submit_overdeadline;
  }
  [[nodiscard]] double submits_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(submit_replies()) / wall_s
                        : 0.0;
  }
  [[nodiscard]] double shed_rate() const {
    const std::uint64_t total = submit_replies();
    return total ? static_cast<double>(tally.submit_busy +
                                       tally.submit_overdeadline) /
                       static_cast<double>(total)
                 : 0.0;
  }
  [[nodiscard]] double quantile_ms(double q) {
    if (tally.reply_ms.empty()) return 0.0;
    std::sort(tally.reply_ms.begin(), tally.reply_ms.end());
    const std::size_t idx =
        std::min(tally.reply_ms.size() - 1,
                 static_cast<std::size_t>(
                     q * static_cast<double>(tally.reply_ms.size())));
    return tally.reply_ms[idx];
  }
};

/// A fresh service under `root` with a bounded campaign queue, warmed alike
/// for both passes: the result cache holds the storm spec (accepted storm
/// SUBMITs drain through it) and the session-wall histogram has >= 20
/// samples (which arms the deadline admission check, so deadline_pct
/// traffic can actually shed). Returns the mix aimed at it.
StormMix warm_service(std::unique_ptr<SessionService>& service,
                      const std::filesystem::path& root,
                      std::size_t service_threads, std::size_t max_pending,
                      int submit_pct, int deadline_pct) {
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  ServiceConfig config;
  config.root = root;
  config.num_threads = service_threads;
  config.snapshot_every = 0;
  config.max_pending = max_pending;
  config.enable_journal = false;  // front-end bench, not an audit bench
  service = std::make_unique<SessionService>(config);
  std::string warm_id;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    warm_id = service->submit_text(storm_spec(seed), 0, "warm");
    service->wait(warm_id);
  }
  MetricHistogram& wall =
      MetricsRegistry::global().histogram("session.wall_us");
  while (wall.count() < 20) wall.record(50'000'000);

  StormMix mix;
  mix.spec = storm_spec(1);
  mix.submit = "SUBMIT 0 storm\n" + mix.spec;
  mix.hopeless = "SUBMIT 0 storm deadline_ms=1\n" + mix.spec;
  mix.status = "STATUS " + warm_id + "\n";
  mix.submit_pct = submit_pct;
  mix.deadline_pct = deadline_pct;
  return mix;
}

StormResult run_wire_storm(const std::filesystem::path& root,
                           std::size_t clients,
                           std::size_t requests_per_client, int submit_pct,
                           int deadline_pct, std::size_t generators,
                           std::size_t service_threads,
                           std::size_t max_pending, std::size_t workers) {
  std::unique_ptr<SessionService> service;
  const StormMix mix = warm_service(service, root, service_threads,
                                    max_pending, submit_pct, deadline_pct);
  EndpointOptions options;
  options.workers = workers;
  ServiceEndpoint endpoint(*service, root / "serviced.sock", options);

  generators = std::max<std::size_t>(1, std::min(generators, clients));
  std::vector<std::unique_ptr<StormGenerator>> gens;
  std::size_t assigned = 0;
  for (std::size_t g = 0; g < generators; ++g) {
    const std::size_t share =
        clients / generators + (g < clients % generators ? 1 : 0);
    gens.push_back(std::make_unique<StormGenerator>(
        endpoint.socket_path(), mix, assigned, share, requests_per_client));
    assigned += share;
  }
  std::vector<StormTally> tallies(generators);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t g = 0; g < generators; ++g)
    threads.emplace_back([&, g] { tallies[g] = gens[g]->run(); });
  for (std::thread& t : threads) t.join();
  StormResult result;
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  for (const StormTally& tally : tallies) result.tally.fold(tally);
  service->drain();
  return result;
}

/// The SUBMITs of the same mix as direct submit_text calls, on one thread:
/// the service's own cost per SUBMIT, without the wire, the reactor or the
/// worker hand-offs. One pass over the mix takes tens of milliseconds, too
/// short to time steadily, so a run makes kDirectRepeats passes.
constexpr int kDirectRepeats = 10;

StormResult run_direct_storm(const std::filesystem::path& root,
                             std::size_t clients,
                             std::size_t requests_per_client, int submit_pct,
                             int deadline_pct, std::size_t service_threads,
                             std::size_t max_pending) {
  std::unique_ptr<SessionService> service;
  const StormMix mix = warm_service(service, root, service_threads,
                                    max_pending, submit_pct, deadline_pct);
  StormResult result;
  const auto start = std::chrono::steady_clock::now();
  for (int repeat = 0; repeat < kDirectRepeats; ++repeat) {
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        bool is_submit = false;
        const std::string* request = mix.pick(c, r, is_submit);
        if (!is_submit) continue;
        try {
          static_cast<void>(service->submit_text(
              mix.spec, 0, "storm", TraceContext{},
              request == &mix.hopeless ? 1 : 0));
          ++result.tally.submit_ok;
        } catch (const ServiceOverdeadlineError&) {
          ++result.tally.submit_overdeadline;
        } catch (const ServiceBusyError&) {
          ++result.tally.submit_busy;
        } catch (const std::exception&) {
          ++result.tally.errors;
        }
      }
    }
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  service->drain();
  return result;
}

/// Each side runs kPasses times, alternating, each time on a freshly warmed
/// service, and its fastest run counts. One run is noisy here: a storm
/// started from idle measured about half the wire rate of one started right
/// after another, and a service reused across runs slows every run down
/// (LIST walks every campaign it ever admitted).
constexpr int kPasses = 5;

StormResult faster(StormResult best, StormResult next, int pass) {
  return pass == 0 || next.wall_s < best.wall_s ? std::move(next)
                                                : std::move(best);
}

void print_result(const char* label, StormResult& r) {
  std::cout << label << ": " << r.submit_replies() << " SUBMIT replies in "
            << Table::fmt(r.wall_s, 2) << " s = "
            << Table::fmt(r.submits_per_s(), 0) << "/s (accepted "
            << r.tally.submit_ok << ", busy " << r.tally.submit_busy
            << ", overdeadline " << r.tally.submit_overdeadline
            << ", shed rate " << Table::fmt(100.0 * r.shed_rate(), 1)
            << "%)\n  probes " << r.tally.probe_ok << ", reply p50 "
            << Table::fmt(r.quantile_ms(0.5), 2) << " ms, p99 "
            << Table::fmt(r.quantile_ms(0.99), 2) << " ms, connect retries "
            << r.tally.connect_retries << ", errors " << r.tally.errors
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = 512;
  std::size_t requests_per_client = 16;
  int submit_pct = 60;
  int deadline_pct = 10;  // of all traffic; these SUBMITs carry deadline_ms=1
  // One generator thread multiplexes all connections by default: the load
  // generator must stay lighter than the servers under test, or the
  // measurement degenerates into client-side scheduler noise.
  std::size_t generators = 1;
  std::size_t service_threads = 2;
  std::size_t max_pending = 64;
  std::size_t workers = 4;
  std::filesystem::path root =
      std::filesystem::temp_directory_path() / "emutile-submit-storm";
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") clients = std::strtoull(need(), nullptr, 10);
    else if (arg == "--requests-per-client")
      requests_per_client = std::strtoull(need(), nullptr, 10);
    else if (arg == "--submit-pct") submit_pct = std::atoi(need());
    else if (arg == "--deadline-pct") deadline_pct = std::atoi(need());
    else if (arg == "--generators")
      generators = std::strtoull(need(), nullptr, 10);
    else if (arg == "--threads")
      service_threads = std::strtoull(need(), nullptr, 10);
    else if (arg == "--max-pending")
      max_pending = std::strtoull(need(), nullptr, 10);
    else if (arg == "--endpoint-workers")
      workers = std::strtoull(need(), nullptr, 10);
    else if (arg == "--root") root = need();
    else if (arg == "--json") json_out = need();
    else {
      std::cerr << "usage: submit_storm [--clients N]"
                   " [--requests-per-client N] [--submit-pct N]"
                   " [--deadline-pct N] [--generators N] [--threads N]"
                   " [--max-pending N] [--endpoint-workers N]"
                   " [--root DIR] [--json PATH]\n";
      return 2;
    }
  }
  bench::banner("Submit storm: the endpoint vs direct submit_text calls",
                "the service-throughput requirements behind the fleet,");
  std::cout << clients << " concurrent clients x " << requests_per_client
            << " requests, " << submit_pct << "% SUBMIT (" << deadline_pct
            << "% with a 1 ms deadline), max_pending=" << max_pending
            << ", " << generators << " generator thread(s)\n\n";

  StormResult wire, direct;
  std::uint64_t total_errors = 0;  // over every run, not just the fastest
  for (int pass = 0; pass < kPasses; ++pass) {
    StormResult w =
        run_wire_storm(root / "wire", clients, requests_per_client,
                       submit_pct, deadline_pct, generators, service_threads,
                       max_pending, workers);
    StormResult d =
        run_direct_storm(root / "direct", clients, requests_per_client,
                         submit_pct, deadline_pct, service_threads,
                         max_pending);
    total_errors += w.tally.errors + d.tally.errors;
    wire = faster(std::move(wire), std::move(w), pass);
    direct = faster(std::move(direct), std::move(d), pass);
  }
  print_result("wire   ", wire);
  std::cout << "direct : " << direct.submit_replies()
            << " submit_text calls in " << Table::fmt(direct.wall_s, 3)
            << " s = " << Table::fmt(direct.submits_per_s(), 0)
            << "/s (accepted " << direct.tally.submit_ok << ", busy "
            << direct.tally.submit_busy << ", overdeadline "
            << direct.tally.submit_overdeadline << ")\n";

  const double overhead_ratio =
      wire.submits_per_s() > 0.0
          ? direct.submits_per_s() / wire.submits_per_s()
          : 0.0;
  std::cout << "\ndirect/wire SUBMIT throughput ratio: "
            << Table::fmt(overhead_ratio, 2) << "\n";
  if (total_errors > 0 || wire.submits_per_s() <= 0.0) {
    std::cerr << "FAIL: " << total_errors
              << " requests died or got unexpected replies\n";
    return 1;
  }

  if (!json_out.empty()) {
    bench::MetricsJson metrics("submit_storm");
    // Guarded: what the endpoint costs over a direct call, measured in the
    // same run on the same machine. Lower is better.
    metrics.add("storm_endpoint_overhead_ratio", overhead_ratio);
    // Informational: absolute rates and latencies for humans and trends.
    metrics.add("storm_reactor_submits_per_s", wire.submits_per_s());
    metrics.add("storm_reactor_reply_p50_ms", wire.quantile_ms(0.5));
    metrics.add("storm_reactor_reply_p99_ms", wire.quantile_ms(0.99));
    metrics.add("storm_reactor_shed_rate", wire.shed_rate());
    metrics.add("storm_reactor_connect_retries",
                static_cast<double>(wire.tally.connect_retries));
    metrics.add("storm_direct_submits_per_s", direct.submits_per_s());
    metrics.add("storm_clients", static_cast<double>(clients));
    metrics.write(json_out);
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return 0;
}
