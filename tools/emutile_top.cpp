/// emutile_top — live fleet console for emutile_serviced instances.
///
/// Polls every instance of a fleet config (STATUS via LIST, METRICS,
/// CACHE, TRACESPANS) on a refresh loop and renders one screen per tick:
/// per-instance campaign counts, scheduler queue depth, cache hit rate,
/// request-latency p50/p99, slow-request count — plus the slowest open
/// spans fleet-wide (what each instance is doing *right now*). A dead
/// instance shows as down and never stalls the loop.
///
///   $ emutile_top --fleet FLEET.cfg [--interval-ms N] [--iterations N]
///                 [--timeout-ms N] [--no-clear]
///
///   --interval-ms N   refresh cadence (default 2000)
///   --iterations N    stop after N refreshes (default 0 = run until ^C;
///                     scripts and CI use 1 for a single snapshot)
///   --timeout-ms N    per-request receive timeout (default 5000)
///   --no-clear        append screens instead of ANSI-clearing between them

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orchestrator/fleet_config_io.hpp"
#include "service/service_client.hpp"
#include "util/log.hpp"
#include "flag_number.hpp"

using namespace emutile;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --fleet FLEET.cfg [--interval-ms N] [--iterations N]"
               " [--timeout-ms N] [--no-clear]\n";
  return 2;
}

/// What one poll of one instance yielded.
struct InstanceView {
  const FleetInstance* config = nullptr;
  bool reachable = false;
  std::string error;            ///< why unreachable (first line)
  std::size_t queued = 0;       ///< campaigns in queued state
  std::size_t running = 0;      ///< campaigns in running state
  std::size_t finished = 0;     ///< terminal campaigns (any kind)
  MetricsSnapshot metrics;
  std::vector<TraceSpan> open_spans;
};

/// Count campaign states from a LIST reply: `OK <count>` then one
/// `<id> <state> <done>/<total> ...` line per campaign.
void count_campaigns(const std::string& list_reply, InstanceView& view) {
  std::istringstream in(list_reply);
  std::string line;
  std::getline(in, line);  // the OK header
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, state;
    if (!(fields >> id >> state)) continue;
    if (state == "queued") ++view.queued;
    else if (state == "running") ++view.running;
    else ++view.finished;
  }
}

InstanceView poll_instance(const FleetInstance& instance, int timeout_ms) {
  InstanceView view;
  view.config = &instance;
  const ServiceClient client(instance.address, timeout_ms);
  try {
    count_campaigns(client.list(), view);
    view.metrics = parse_metrics_text(client.fetch_metrics());
    view.open_spans = client.fetch_trace_spans().spans;
    view.open_spans.erase(
        std::remove_if(view.open_spans.begin(), view.open_spans.end(),
                       [](const TraceSpan& s) { return !s.open; }),
        view.open_spans.end());
    view.reachable = true;
  } catch (const std::exception& e) {
    view.error = e.what();
    const std::size_t eol = view.error.find('\n');
    if (eol != std::string::npos) view.error.resize(eol);
  }
  return view;
}

std::uint64_t counter_of(const MetricsSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t gauge_of(const MetricsSnapshot& snap, const char* name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0 : it->second;
}

/// All `endpoint.request_us.<CMD>` series folded into one distribution, so
/// the latency column reflects the instance's whole request mix.
HistogramSnapshot merged_request_latency(const MetricsSnapshot& snap) {
  HistogramSnapshot merged;
  for (const auto& [name, hist] : snap.histograms)
    if (name.rfind("endpoint.request_us.", 0) == 0) merged.merge(hist);
  return merged;
}

std::string format_ms(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", static_cast<double>(us) / 1000.0);
  return buf;
}

std::string format_hit_rate(std::uint64_t hits, std::uint64_t misses) {
  if (hits + misses == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f%%",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses));
  return buf;
}

void render(const std::vector<InstanceView>& views, std::size_t tick) {
  std::ostringstream out;
  out << "emutile fleet — refresh " << tick << ", " << views.size()
      << " instance(s)\n\n";
  out << "  instance         state  campaigns q/r/done  queue  active"
         "  cache  req p50/p99 ms  slow\n";
  for (const InstanceView& view : views) {
    char line[160];
    if (!view.reachable) {
      std::snprintf(line, sizeof line, "  %-16s %-6s %s",
                    view.config->name.c_str(), "down",
                    view.error.empty() ? "(no reply)" : view.error.c_str());
      out << line << "\n";
      continue;
    }
    const HistogramSnapshot latency = merged_request_latency(view.metrics);
    const std::string p50 = format_ms(latency.quantile(0.50));
    const std::string p99 = format_ms(latency.quantile(0.99));
    const std::string hit_rate =
        format_hit_rate(counter_of(view.metrics, "result_cache.hits"),
                        counter_of(view.metrics, "result_cache.misses"));
    std::snprintf(
        line, sizeof line,
        "  %-16s %-6s %4zu/%zu/%-10zu %5lld %7lld  %5s  %7s/%-7s %4llu",
        view.config->name.c_str(), "up", view.queued, view.running,
        view.finished,
        static_cast<long long>(
            gauge_of(view.metrics, "scheduler.queue_depth")),
        static_cast<long long>(
            gauge_of(view.metrics, "service.campaigns_active")),
        hit_rate.c_str(), p50.c_str(), p99.c_str(),
        static_cast<unsigned long long>(
            counter_of(view.metrics, "endpoint.slow_requests")));
    out << line << "\n";
  }

  // The slowest work currently in flight anywhere in the fleet.
  struct OpenEntry {
    const TraceSpan* span;
    const std::string* instance;
  };
  std::vector<OpenEntry> open;
  for (const InstanceView& view : views)
    for (const TraceSpan& span : view.open_spans)
      open.push_back({&span, &view.config->name});
  std::sort(open.begin(), open.end(), [](const OpenEntry& a,
                                         const OpenEntry& b) {
    return a.span->dur_us > b.span->dur_us;
  });
  out << "\n  slowest open spans:\n";
  if (open.empty()) out << "    (none)\n";
  for (std::size_t i = 0; i < open.size() && i < 5; ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "    %10s ms  %-28s @ %s",
                  format_ms(open[i].span->dur_us).c_str(),
                  open[i].span->name.c_str(), open[i].instance->c_str());
    out << line << "\n";
  }
  std::cout << out.str() << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path fleet_path;
  int interval_ms = 2000;
  std::size_t iterations = 0;
  int timeout_ms = 5000;
  bool clear_screen = true;

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
    if (arg == "--fleet") fleet_path = value();
    else if (arg == "--interval-ms") interval_ms = number(0);
    else if (arg == "--iterations") iterations = number(std::size_t{0});
    else if (arg == "--timeout-ms") timeout_ms = number(-1);
    else if (arg == "--no-clear") clear_screen = false;
    else return usage(argv[0]);
  }
  if (fleet_path.empty()) return usage(argv[0]);
  set_log_threshold(LogLevel::kWarn);

  try {
    const FleetConfig fleet = load_fleet_config_file(fleet_path);
    for (std::size_t tick = 1; iterations == 0 || tick <= iterations;
         ++tick) {
      std::vector<InstanceView> views;
      views.reserve(fleet.instances.size());
      for (const FleetInstance& instance : fleet.instances)
        views.push_back(poll_instance(instance, timeout_ms));
      if (clear_screen) std::cout << "\x1b[2J\x1b[H";
      render(views, tick);
      if (iterations != 0 && tick == iterations) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::cerr << "emutile_top: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
