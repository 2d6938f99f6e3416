/// emutile_submit — submit campaign specs to a running emutile_serviced.
///
/// Prefers the daemon's Unix socket (immediate id + optional --wait); falls
/// back to dropping the spec into the spool directory (picked up on the
/// daemon's next poll) when no socket is reachable or --spool is forced.
/// All socket traffic goes through the shared ServiceClient — the same
/// codepath the campaign coordinator uses.
///
///   $ emutile_submit --root DIR [--socket ADDR] [--spool] [--priority N]
///                    [--deadline-ms N] [--wait]
///                    [--status ID | --list | --cancel ID | --cache
///                    | --metrics [json] | --drain] SPEC...
///
///   --socket ADDR    daemon endpoint: a bare path (Unix socket, the legacy
///                    form), `unix:/path`, or `tcp:host:port` — see
///                    address.hpp. Default <root>/serviced.sock.
///
///   --deadline-ms N  relative deadline for socket submissions; the daemon
///                    sheds the SUBMIT with `ERR overdeadline` when its
///                    admission control finds N ms infeasible. Spool
///                    submissions ignore it (no admission on the spool path).
///   --drain          tell the daemon to stop admitting, finish its backlog,
///                    and exit 0 — the rolling-upgrade handoff (see
///                    emutile_serviced --attach for the restart side).
///
/// Spec files are validated locally before submission, so malformed specs
/// fail fast with a parse error instead of landing in spool/rejected/.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "campaign/campaign_spec_io.hpp"
#include "obs/trace.hpp"
#include "service/address.hpp"
#include "service/service_client.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "flag_number.hpp"

using namespace emutile;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --root DIR [--socket ADDR] [--spool] [--priority N]"
               " [--deadline-ms N] [--wait]"
               " [--status ID | --list | --cancel ID | --cache"
               " | --metrics [json] | --drain] SPEC...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root;
  std::string socket_arg;
  bool force_spool = false;
  bool wait = false;
  int priority = 0;
  std::uint64_t deadline_ms = 0;
  std::string one_shot;  // "LIST", "STATUS <id>", "CANCEL <id>", "CACHE", ...
  std::vector<std::filesystem::path> specs;

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
    if (arg == "--root") root = value();
    else if (arg == "--socket") socket_arg = value();
    else if (arg == "--spool") force_spool = true;
    else if (arg == "--priority") priority = number(std::numeric_limits<int>::min());
    else if (arg == "--deadline-ms") deadline_ms = number(std::uint64_t{0});
    else if (arg == "--wait") wait = true;
    else if (arg == "--list") one_shot = "LIST";
    else if (arg == "--status") one_shot = std::string("STATUS ") + value();
    else if (arg == "--cancel") one_shot = std::string("CANCEL ") + value();
    else if (arg == "--cache") one_shot = "CACHE";
    else if (arg == "--drain") one_shot = "DRAIN";
    else if (arg == "--metrics") {
      // Optional bare "json" operand selects the JSON exposition.
      one_shot = "METRICS";
      if (i + 1 < argc && std::string(argv[i + 1]) == "json") {
        one_shot += " json";
        ++i;
      }
    }
    else if (!arg.empty() && arg[0] == '-') return usage(argv[0]);
    else specs.emplace_back(arg);
  }
  if (root.empty()) return usage(argv[0]);
  if (specs.empty() && one_shot.empty()) return usage(argv[0]);

  try {
    // Bare --socket values keep their legacy Unix-socket meaning; unix: and
    // tcp: URIs reach daemons anywhere.
    const ServiceAddress address =
        socket_arg.empty()
            ? ServiceAddress::unix_socket(root / "serviced.sock")
            : parse_service_address(socket_arg);
    ServiceClient client(address);
    if (!one_shot.empty()) {
      std::cout << client.request(one_shot + "\n");
      return 0;
    }

    // The socket is "up" only if it actually answers — a stale socket file
    // left by a crashed daemon must not strand submissions.
    const bool socket_up = !force_spool && client.ping();
    std::vector<std::string> ids;
    for (const std::filesystem::path& spec_path : specs) {
      const std::string text = read_file(spec_path);
      static_cast<void>(parse_campaign_spec(text));  // validate locally

      // Each submission roots its own trace; the daemon parents the
      // campaign's spans on it, so out/<id>/trace.json carries this id.
      const TraceContext trace = Tracer::global().mint_trace();
      const std::string traceparent =
          trace.valid() ? format_traceparent(trace) : std::string();

      if (socket_up) {
        const std::string id =
            client.submit(text, priority, spec_path.stem().string(),
                          traceparent, deadline_ms);
        std::cout << spec_path.string() << " -> " << id;
        if (!traceparent.empty()) std::cout << " trace " << traceparent;
        std::cout << "\n";
        ids.push_back(id);
      } else {
        const std::filesystem::path spooled =
            spool_submit_spec(root, spec_path.stem().string(),
                              prepend_traceparent(text, traceparent));
        std::cout << spec_path.string() << " -> spooled as "
                  << spooled.filename().string();
        if (!traceparent.empty()) std::cout << " trace " << traceparent;
        std::cout << "\n";
      }
    }

    if (wait) {
      EMUTILE_CHECK(socket_up,
                    "--wait needs the daemon socket (spool submissions get "
                    "their id from the daemon, not the client)");
      for (const std::string& id : ids)
        std::cout << id << ": OK " << client.wait(id) << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "emutile_submit: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
