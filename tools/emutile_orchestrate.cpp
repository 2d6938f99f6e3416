/// emutile_orchestrate — fan one campaign spec out across a fleet of
/// serviced instances and merge the shard reports.
///
/// Reads a fleet config (see fleet_config_io.hpp), shards the spec across
/// the instances, supervises the shards (re-dispatching on instance failure,
/// stall, or rejection; falling back to in-process execution when the whole
/// fleet is down), and writes a merged report byte-identical to a direct
/// unsharded run_campaign of the same spec.
///
///   $ emutile_orchestrate --fleet FLEET.cfg --spec SPEC [--out DIR]
///                         [--shards N] [--priority N] [--poll-ms N]
///                         [--stall-ms N] [--timeout-ms N]
///                         [--local-threads N] [--no-local-fallback]
///                         [--adaptive] [--target-halfwidth X]
///                         [--initial-sessions N] [--max-sessions N]
///                         [--metric detection|correction|debug-work]
///                         [--quiet]
///
/// --poll-ms (default 200, at least 1) is the STATUS cadence: progress
/// lines, stall detection, draining and work stealing. A shard is collected
/// the moment its parked WAIT answers, so a longer cadence costs no
/// completion latency. A numeric flag whose value is not a whole number in
/// range prints the usage line and exits 2.
///
/// The fleet is elastic mid-campaign: editing FLEET.cfg (or sending the
/// process SIGHUP to force a re-read) joins newly-listed instances into the
/// running campaign and retires missing ones; a rewrite that fails to parse
/// is ignored and the current membership kept. Idle instances pick up work
/// stolen from the slowest in-flight shard; every placement prefers the
/// instance whose caches already hold the shard's sessions.
///
/// --adaptive runs the campaign in confidence-driven rounds (see
/// adaptive_driver.hpp): a uniform exploratory round of --initial-sessions
/// per scenario, then follow-up rounds orchestrated across the fleet as
/// extra shards, spending sessions on the scenarios whose --metric interval
/// is widest until every half-width is at or below --target-halfwidth or
/// --max-sessions (default: the spec's own uniform budget) runs out.
///
/// Writes <out>/report.json, <out>/report.csv, and <out>/report.shard
/// (the mergeable form) — default out dir is the current directory. A
/// non-adaptive run also writes <out>/fleet_metrics.txt + .json (the merged
/// per-instance metrics registries; sums of the instance series),
/// <out>/fleet_trace.json (the run's stitched fleet trace in Chrome
/// trace-event JSON — load it in Perfetto), and streams an
/// <out>/events.jsonl journal of dispatch/retry/collect records. The
/// report artifacts stay deterministic; metrics, trace, and journal are
/// observability sidecars.

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "campaign/adaptive_driver.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "obs/trace_io.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "flag_number.hpp"

using namespace emutile;

namespace {

// SIGHUP = re-read the fleet file now (the coordinator also watches its
// mtime, but a signal beats waiting out a coarse filesystem timestamp).
std::atomic<bool> g_reload{false};
void on_sighup(int) { g_reload.store(true); }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --fleet FLEET.cfg --spec SPEC [--out DIR] [--shards N]"
               " [--priority N] [--poll-ms N] [--stall-ms N] [--timeout-ms N]"
               " [--local-threads N] [--no-local-fallback] [--adaptive]"
               " [--target-halfwidth X] [--initial-sessions N]"
               " [--max-sessions N]"
               " [--metric detection|correction|debug-work] [--quiet]\n";
  return 2;
}

void print_snapshot(const FleetSnapshot& snap) {
  std::cout << "fleet: " << snap.shards_done << "/" << snap.shards.size()
            << " shards done, " << snap.sessions_done << "/"
            << snap.sessions_total << " sessions, " << snap.healthy_instances
            << "/" << snap.total_instances << " instances healthy |";
  for (const ShardProgress& shard : snap.shards)
    std::cout << " s" << shard.shard << "=" << to_string(shard.state) << "@"
              << (shard.instance.empty() ? "-" : shard.instance) << ":"
              << shard.sessions_done << "/" << shard.sessions_total;
  std::cout << std::endl;  // flush: progress must survive a crash right after
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path fleet_path, spec_path, out_dir = ".";
  CoordinatorOptions options;
  AdaptiveOptions adaptive;
  bool use_adaptive = false;
  bool quiet = false;

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
    else if (arg == "--spec") spec_path = value();
    else if (arg == "--out") out_dir = value();
    else if (arg == "--shards") options.num_shards = number(std::size_t{0});
    else if (arg == "--priority") options.priority = number(std::numeric_limits<int>::min());
    else if (arg == "--poll-ms") options.poll_interval = std::chrono::milliseconds(number(1));
    else if (arg == "--stall-ms") options.stall_deadline = std::chrono::milliseconds(number(0));
    else if (arg == "--timeout-ms") options.request_timeout_ms = number(-1);
    else if (arg == "--local-threads") options.local_threads = number(std::size_t{0});
    else if (arg == "--no-local-fallback") options.allow_local_fallback = false;
    else if (arg == "--adaptive") use_adaptive = true;
    else if (arg == "--target-halfwidth") adaptive.target_halfwidth = number(0.0);
    else if (arg == "--initial-sessions") adaptive.initial_sessions = number(1);
    else if (arg == "--max-sessions") adaptive.max_total_sessions = number(std::size_t{0});
    else if (arg == "--metric") {
      const std::string metric = value();
      if (metric == "detection") adaptive.metric = AdaptiveMetric::kDetection;
      else if (metric == "correction") adaptive.metric = AdaptiveMetric::kCorrection;
      else if (metric == "debug-work") adaptive.metric = AdaptiveMetric::kDebugWork;
      else return usage(argv[0]);
    }
    else if (arg == "--quiet") quiet = true;
    else return usage(argv[0]);
  }
  if (fleet_path.empty() || spec_path.empty()) return usage(argv[0]);
  set_log_threshold(LogLevel::kWarn);
  std::signal(SIGHUP, on_sighup);

  try {
    const FleetConfig fleet = load_fleet_config_file(fleet_path);
    const CampaignSpec spec = load_campaign_spec_file(spec_path);
    // Elasticity: watch the fleet file for membership changes mid-campaign.
    options.fleet_file = fleet_path;
    options.reload_flag = &g_reload;
    if (!quiet) {
      std::cout << "fleet (" << fleet.instances.size() << " instances):\n";
      for (const FleetInstance& instance : fleet.instances)
        std::cout << "  " << instance.name << " "
                  << instance.address.to_string() << "\n";
      options.on_snapshot = print_snapshot;
    }

    // One trace for the whole invocation: every shard dispatch, remote
    // campaign, and session span hangs off this id, and the journal stamps
    // it on each record.
    options.trace = Tracer::global().mint_trace();

    // The journal and metrics sidecars live next to the reports; create the
    // out dir up front so the journal can open.
    std::filesystem::create_directories(out_dir);
    EventJournal journal(out_dir / "events.jsonl", spec_path.stem().string(),
                         format_u64_hex(options.trace.trace_id));
    options.journal = &journal;

    CampaignCoordinator coordinator(fleet, options);
    CampaignReport report;
    MetricsSnapshot fleet_metrics;
    std::size_t metrics_instances = 0;
    std::vector<TraceSpan> fleet_trace;
    std::size_t trace_instances = 0;
    if (use_adaptive) {
      adaptive.executor = make_adaptive_executor(coordinator);
      if (!quiet) {
        adaptive.on_round = [&](const AdaptiveRoundInfo& info) {
          std::cout << "adaptive round " << info.round << ": "
                    << info.sessions << " sessions ("
                    << info.total_sessions << " total), max "
                    << to_string(adaptive.metric) << " half-width "
                    << info.max_halfwidth << ", "
                    << info.scenarios_above_target
                    << " scenario(s) above target" << std::endl;
        };
      }
      AdaptiveCampaignDriver driver(adaptive);
      AdaptiveResult result = driver.run(spec);
      report = std::move(result.report);
      std::cout << "adaptive campaign "
                << (result.converged ? "converged" : "stopped") << " after "
                << result.rounds << " round(s), " << result.total_sessions
                << "/" << spec.num_sessions()
                << " sessions of the uniform budget, max half-width "
                << result.max_halfwidth << "\n";
    } else {
      OrchestrationResult result = coordinator.run(spec);
      report = std::move(result.report);
      fleet_metrics = std::move(result.fleet_metrics);
      metrics_instances = result.metrics_instances;
      fleet_trace = std::move(result.fleet_trace);
      trace_instances = result.trace_instances;
      std::cout << "orchestrated " << result.num_shards << " shard"
                << (result.num_shards == 1 ? "" : "s") << " ("
                << result.redispatches << " re-dispatched, "
                << result.steals << " stolen, "
                << result.affinity_dispatches << " affinity-placed, "
                << result.joined_instances << " joined, "
                << result.local_shards << " ran locally)\n";
    }

    write_file_atomic(out_dir / "report.json", report.to_json());
    write_file_atomic(out_dir / "report.csv", report.to_csv());
    write_file_atomic(out_dir / "report.shard",
                      serialize_campaign_report(report));
    if (!fleet_metrics.empty()) {
      write_file_atomic(out_dir / "fleet_metrics.txt", fleet_metrics.to_text());
      write_file_atomic(out_dir / "fleet_metrics.json",
                        fleet_metrics.to_json());
      std::cout << "fleet metrics merged from " << metrics_instances
                << " instance(s)\n";
    }
    if (!fleet_trace.empty()) {
      write_file_atomic(out_dir / "fleet_trace.json",
                        trace_events_json(fleet_trace));
      std::cout << "fleet trace: " << fleet_trace.size() << " span(s) from "
                << trace_instances << " instance(s), trace id "
                << format_u64_hex(options.trace.trace_id) << "\n";
    }

    report.print_summary(std::cout);
    std::cout << "reports written to " << out_dir.string() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "emutile_orchestrate: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
