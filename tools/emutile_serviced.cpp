/// emutile_serviced — the campaign session daemon.
///
/// Runs a resident SessionService: polls the spool directory for submitted
/// campaign specs, serves the Unix-socket control endpoint, and streams
/// snapshots/reports under <root>/out/. Stops on SIGINT/SIGTERM, on a
/// SHUTDOWN request over the socket, or when a file named <root>/stop
/// appears (handy for scripted orchestration); in-flight campaigns are
/// drained before exit unless --no-drain is given.
///
/// Durability: `--attach` re-attaches to the root a previous daemon left
/// behind — unfinished campaigns (valid out/<id>/journal.wal) resume
/// mid-stream, completed ones answer STATUS/WAIT again, unvalidatable dirs
/// are archived to out/<id>.stale. SIGUSR2 (or the DRAIN wire command)
/// begins a drain: no new admissions, in-flight campaigns finish or
/// journal, then the daemon exits 0 — the rolling-upgrade handoff.
///
///   $ emutile_serviced --root DIR [--attach] [--threads N]
///                      [--snapshot-every N]
///                      [--poll-ms N] [--no-cache] [--cache-max-bytes N]
///                      [--baseline-cache-entries N] [--no-socket]
///                      [--socket PATH] [--tcp HOST:PORT]
///                      [--max-pending N] [--quota N]
///                      [--deadline-default-ms N]
///                      [--endpoint-workers N]
///                      [--once] [--no-drain] [--no-journal]
///                      [--slow-request-ms N] [--slow-session-multiple X]
///                      [--log-level debug|info|warn|error|off]
///
///   --max-pending N      bounded SUBMIT queue: reject with `ERR busy` while
///                        N campaigns are already queued or running
///                        (0 = unbounded); the submit intake ring is sized
///                        to max(1024, N)
///   --quota N            per-campaign session quota: SUBMITs whose spec
///                        expands to more than N sessions are shed with
///                        `ERR busy` (0 = unbounded)
///   --deadline-default-ms N  relative deadline applied to SUBMITs that
///                        carry no deadline_ms= token; admission control
///                        sheds infeasible ones with `ERR overdeadline`
///                        (0 = no default deadline)
///   --tcp HOST:PORT      additionally listen on a TCP address (same wire
///                        protocol as the Unix socket — cross-host fleets).
///                        Port 0 picks a free port; the bound address is
///                        written to <root>/serviced.tcp either way, so
///                        scripts can discover it
///   --endpoint-workers N request-execution workers behind the endpoint's
///                        epoll reactor (default 4)
///   --cache-max-bytes N  bound the result cache to N bytes of entries;
///                        oldest-mtime entries are evicted past the bound
///                        (0 = unbounded)
///   --baseline-cache-entries N  cap the warm-start tiled-baseline cache
///                        (pre-injection builds shared across campaigns;
///                        LRU past the cap, 0 = unbounded, default 8)
///
///   --attach  re-attach to the root's surviving out/ dirs before serving:
///             resume unfinished campaigns from their write-ahead journals,
///             re-register completed ones, archive the rest to out/<id>.stale
///   --once   drain the spool once, wait for those campaigns, and exit.
///   --no-journal   skip the per-campaign out/<id>/events.jsonl audit journal
///   --slow-request-ms N  WARN + count `endpoint.slow_requests` for endpoint
///                        requests slower than N ms (default 1000)
///   --slow-session-multiple X  WARN + count `service.slow_sessions` when a
///                        session exceeds X times the running session-wall
///                        p99 (default 4; <= 0 disables the watchdog)
///   --log-level L  log verbosity (default info)

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "service/address.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "flag_number.hpp"

using namespace emutile;

namespace {

volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

// SIGUSR2 = begin drain (stop admitting, finish in-flight, exit 0): its own
// flag so the main loop can tell a handoff from a plain shutdown.
volatile std::sig_atomic_t g_drain_signalled = 0;
void on_drain_signal(int) { g_drain_signalled = 1; }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --root DIR [--threads N] [--snapshot-every N] [--poll-ms N]"
               " [--no-cache] [--cache-max-bytes N]"
               " [--baseline-cache-entries N] [--no-socket] [--socket PATH]"
               " [--tcp HOST:PORT]"
               " [--max-pending N] [--quota N] [--deadline-default-ms N]"
               " [--endpoint-workers N] [--attach] [--once] [--no-drain]"
               " [--no-journal]"
               " [--slow-request-ms N] [--slow-session-multiple X]"
               " [--log-level debug|info|warn|error|off]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  config.num_threads = std::max(2u, std::thread::hardware_concurrency());
  std::filesystem::path socket_path;
  std::string tcp_spec;
  EndpointOptions endpoint_options;
  bool use_socket = true;
  bool once = false;
  bool drain_on_exit = true;
  bool attach = false;
  int poll_ms = 250;
  double slow_request_ms = 1000.0;
  LogLevel log_level = LogLevel::kInfo;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](auto lo) {
      return flag_number(arg, value(), lo, [&] { return usage(argv[0]); });
    };
    if (arg == "--root") config.root = value();
    else if (arg == "--threads") config.num_threads = number(std::size_t{1});
    else if (arg == "--snapshot-every") config.snapshot_every = number(std::size_t{0});
    else if (arg == "--poll-ms") poll_ms = number(1);
    else if (arg == "--max-pending") config.max_pending = number(std::size_t{0});
    else if (arg == "--quota") config.session_quota = number(std::size_t{0});
    else if (arg == "--deadline-default-ms") config.deadline_default_ms = number(std::uint64_t{0});
    else if (arg == "--endpoint-workers") endpoint_options.workers = number(std::size_t{0});
    else if (arg == "--cache-max-bytes") config.cache_max_bytes = number(std::size_t{0});
    else if (arg == "--baseline-cache-entries") config.baseline_cache_entries = number(std::size_t{0});
    else if (arg == "--no-cache") config.enable_cache = false;
    else if (arg == "--no-socket") use_socket = false;
    else if (arg == "--socket") socket_path = value();
    else if (arg == "--tcp") tcp_spec = value();
    else if (arg == "--no-journal") config.enable_journal = false;
    else if (arg == "--attach") attach = true;
    else if (arg == "--slow-request-ms") slow_request_ms = number(0.0);
    else if (arg == "--slow-session-multiple") config.slow_session_multiple = number(std::numeric_limits<double>::lowest());
    else if (arg == "--log-level") {
      const std::optional<LogLevel> parsed = parse_log_level(value());
      if (!parsed) {
        std::cerr << "--log-level wants debug|info|warn|error|off\n";
        return 2;
      }
      log_level = *parsed;
    }
    else if (arg == "--once") once = true;
    else if (arg == "--no-drain") drain_on_exit = false;
    else return usage(argv[0]);
  }
  if (config.root.empty()) return usage(argv[0]);
  if (socket_path.empty()) socket_path = config.root / "serviced.sock";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR2, on_drain_signal);
  set_log_threshold(log_level);

  try {
    SessionService service(config);
    if (attach) {
      // Before the endpoint exists: clients reconnecting after the restart
      // must never observe a half-scanned registry.
      const ReattachStats stats = service.reattach();
      std::cout << "reattached: " << stats.resumed << " resumed, "
                << stats.completed << " completed, " << stats.archived
                << " archived (" << stats.resubmitted << " resubmitted)"
                << std::endl;
    }
    std::unique_ptr<ServiceEndpoint> endpoint;
    const std::filesystem::path tcp_file = config.root / "serviced.tcp";
    if (use_socket) {
      if (!tcp_spec.empty())
        endpoint_options.tcp = parse_service_address("tcp:" + tcp_spec);
      endpoint = std::make_unique<ServiceEndpoint>(service, socket_path,
                                                   endpoint_options);
      endpoint->set_slow_request_ms(slow_request_ms);
      // Advertise the *bound* TCP address (port 0 resolves to a real port)
      // so scripts can discover it without parsing our stdout.
      if (endpoint->tcp_address())
        write_file_atomic(tcp_file,
                          endpoint->tcp_address()->to_string() + "\n");
    }

    std::cout << "emutile_serviced: root=" << config.root.string()
              << " threads=" << config.num_threads
              << " snapshot_every=" << config.snapshot_every << " cache="
              << (config.enable_cache ? "on" : "off");
    if (config.enable_cache && config.cache_max_bytes > 0)
      std::cout << " cache_max_bytes=" << config.cache_max_bytes;
    if (endpoint) {
      std::cout << " socket=" << endpoint->socket_path().string();
      if (endpoint->tcp_address())
        std::cout << " tcp=" << endpoint->tcp_address()->to_string();
    }
    if (config.session_quota > 0)
      std::cout << " quota=" << config.session_quota;
    if (config.deadline_default_ms > 0)
      std::cout << " deadline_default_ms=" << config.deadline_default_ms;
    std::cout << std::endl;

    const std::filesystem::path stop_file = config.root / "stop";
    for (;;) {
      if (g_drain_signalled && !service.draining()) {
        std::cout << "SIGUSR2: draining for handoff" << std::endl;
        service.begin_drain();
      }
      // A draining daemon stops polling its spool (spooled specs stay put
      // for the successor), finishes its backlog, and exits 0.
      if (service.draining()) break;
      const std::size_t accepted = service.poll_spool();
      if (accepted > 0)
        std::cout << "accepted " << accepted << " campaign(s) from spool"
                  << std::endl;
      if (once) break;
      if (g_signalled || std::filesystem::exists(stop_file) ||
          (endpoint && endpoint->shutdown_requested()))
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }

    if (drain_on_exit || once || service.draining()) {
      std::cout << "draining in-flight campaigns..." << std::endl;
      service.drain();
    } else {
      for (const CampaignStatus& s : service.list())
        if (s.state == CampaignState::kQueued ||
            s.state == CampaignState::kRunning)
          service.cancel(s.id);
    }
    for (const CampaignStatus& s : service.list())
      std::cout << "  " << s.id << ": " << to_string(s.state) << " ("
                << s.sessions_done << "/" << s.sessions_total << " sessions, "
                << s.cache_hits << " cache hits)" << std::endl;
    std::error_code ec;
    std::filesystem::remove(stop_file, ec);
    if (endpoint && endpoint->tcp_address())
      std::filesystem::remove(tcp_file, ec);
  } catch (const std::exception& e) {
    std::cerr << "emutile_serviced: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
