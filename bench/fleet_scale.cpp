/// Fleet-scale bench: how close to linear does campaign throughput scale as
/// instances are added to the fleet?
///
/// Runs one pinned catalog campaign through the CampaignCoordinator against
/// in-process serviced fleets of growing size (1, 2, 4, 8 instances by
/// default, one worker thread each, one shard per instance), wall-timing
/// each run, plus a direct run_campaign as the no-fleet reference. Every
/// merged report is checked byte-identical to the direct run — a scaling
/// number from a wrong report is worthless. Work stealing and cache-affinity
/// placement stay on: they are part of the throughput being measured.
///
///   $ ./fleet_scale [--sizes 1,2,4,8] [--replicas N] [--patterns N]
///                   [--tiles N] [--root DIR] [--json PATH]
///
/// `--json` writes the MetricsJson document the perf-regression CI lane
/// (scripts/ci.sh perf) compares against bench/baselines/fleet_scale.json.
/// The guarded key is `fleet_scale_ratio` = T_max * min(cores, max_size) /
/// T_1 — the largest fleet's wall time normalized by the speedup the
/// hardware could at best deliver (lower is better; 1.0 is perfectly linear
/// scaling, and on a single-core runner it degenerates to the coordinator's
/// overhead factor, which is exactly what can regress there).
/// `coordinator_overhead_ratio` = T_1 / T_direct is the one-instance fleet's
/// wall time over a direct run_campaign: what the coordinator, the wire and
/// the daemon add to the same work. It is guarded too once a baseline
/// records it. Absolute seconds and per-size speedups ride along as
/// informational keys.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "campaign/campaign_engine.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"

using namespace emutile;

namespace {

/// The pinned campaign: 2 error kinds x `replicas` on one catalog design,
/// sliceable 8 ways with real work per shard.
CampaignSpec scale_spec(int replicas, int patterns, int tiles) {
  CampaignSpec spec;
  spec.add_catalog_design("9sym");
  spec.error_kinds = {ErrorKind::kWrongPolarity, ErrorKind::kWrongConnection};
  spec.tilings.clear();
  TilingParams tiling;
  tiling.num_tiles = tiles;
  tiling.target_overhead = 0.3;
  spec.tilings.push_back(tiling);
  spec.sessions_per_scenario = replicas;
  spec.master_seed = 20'000;
  spec.num_patterns = patterns;
  return spec;
}

struct FleetRun {
  std::size_t size = 0;
  double wall_s = 0.0;
  std::size_t steals = 0;
  std::size_t affinity = 0;
  bool identical = false;
};

FleetRun run_fleet(std::size_t size, const CampaignSpec& spec,
                   const CampaignReport& reference,
                   const std::filesystem::path& root) {
  std::filesystem::remove_all(root);
  std::vector<std::unique_ptr<SessionService>> services;
  std::vector<std::unique_ptr<ServiceEndpoint>> endpoints;
  FleetConfig fleet;
  for (std::size_t i = 0; i < size; ++i) {
    ServiceConfig config;
    config.root = root / ("i" + std::to_string(i));
    config.num_threads = 1;
    config.snapshot_every = 0;
    config.enable_journal = false;  // throughput bench, not an audit bench
    services.push_back(std::make_unique<SessionService>(config));
    endpoints.push_back(std::make_unique<ServiceEndpoint>(
        *services.back(), config.root / "serviced.sock"));
    fleet.instances.push_back(
        {"i" + std::to_string(i),
         ServiceAddress::unix_socket(endpoints.back()->socket_path())});
  }

  CoordinatorOptions options;
  options.num_shards = size;
  options.poll_interval = std::chrono::milliseconds(5);
  options.request_timeout_ms = 30'000;
  options.collect_metrics = false;  // measure the campaign, not the scrape
  options.collect_trace = false;

  CampaignCoordinator coordinator(fleet, options);
  const auto start = std::chrono::steady_clock::now();
  const OrchestrationResult result = coordinator.run(spec);
  FleetRun run;
  run.size = size;
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  run.steals = result.steals;
  run.affinity = result.affinity_dispatches;
  run.identical = result.report.to_json() == reference.to_json() &&
                  result.report.to_csv() == reference.to_csv();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes = {1, 2, 4, 8};
  int replicas = 8;
  int patterns = 96;
  int tiles = 6;
  std::filesystem::path root =
      std::filesystem::temp_directory_path() / "emutile-fleet-scale";
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
    if (arg == "--sizes") {
      sizes.clear();
      std::stringstream list(need());
      std::string item;
      while (std::getline(list, item, ','))
        sizes.push_back(std::strtoull(item.c_str(), nullptr, 10));
      if (sizes.empty() || sizes.front() != 1) {
        std::cerr << "--sizes must start with 1 (the scaling reference)\n";
        return 2;
      }
    } else if (arg == "--replicas") replicas = std::atoi(need());
    else if (arg == "--patterns") patterns = std::atoi(need());
    else if (arg == "--tiles") tiles = std::atoi(need());
    else if (arg == "--root") root = need();
    else if (arg == "--json") json_out = need();
    else {
      std::cerr << "usage: fleet_scale [--sizes 1,2,4,8] [--replicas N]"
                   " [--patterns N] [--tiles N] [--root DIR] [--json PATH]\n";
      return 2;
    }
  }

  const CampaignSpec spec = scale_spec(replicas, patterns, tiles);
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());

  bench::banner("Fleet scale: orchestrated campaign throughput vs fleet size",
                "the distributed-campaign scaling the fleet layer targets,");
  std::cout << spec.num_sessions() << " sessions (2 error kinds x " << replicas
            << " replicas, " << patterns << " patterns), fleets of";
  for (const std::size_t size : sizes) std::cout << " " << size;
  std::cout << " instance(s), " << cores << " hardware core(s)\n\n";

  // The reference both for byte-identity and for the no-fleet floor. One
  // untimed warm-up first so the timed runs don't pay first-touch costs.
  static_cast<void>(run_campaign(scale_spec(1, patterns, tiles)));
  const auto direct_start = std::chrono::steady_clock::now();
  const CampaignReport reference = run_campaign(spec);
  const double direct_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - direct_start)
                              .count();

  Table table({"instances", "wall s", "speedup", "efficiency", "steals",
               "affinity", "report"});
  std::vector<FleetRun> runs;
  bool all_identical = true;
  for (const std::size_t size : sizes) {
    runs.push_back(run_fleet(size, spec, reference,
                             root / ("fleet-" + std::to_string(size))));
    const FleetRun& run = runs.back();
    const double speedup = run.wall_s > 0.0 ? runs.front().wall_s / run.wall_s
                                            : 0.0;
    const double ideal = static_cast<double>(std::min(cores, run.size));
    table.add_row({std::to_string(run.size), Table::fmt(run.wall_s, 2),
                   Table::fmt(speedup, 2), Table::fmt(speedup / ideal, 2),
                   std::to_string(run.steals), std::to_string(run.affinity),
                   run.identical ? "identical" : "MISMATCH"});
    all_identical &= run.identical;
  }
  table.print(std::cout);
  std::cout << "\ndirect run_campaign (no fleet): " << Table::fmt(direct_s, 2)
            << " s\n";
  if (!all_identical) {
    std::cerr << "FAIL: a merged fleet report diverged from the direct run\n";
    return 1;
  }

  const FleetRun& largest = runs.back();
  const double ideal =
      static_cast<double>(std::min<std::size_t>(cores, largest.size));
  const double scale_ratio =
      runs.front().wall_s > 0.0
          ? largest.wall_s * ideal / runs.front().wall_s
          : 0.0;
  std::cout << "fleet_scale_ratio (T_" << largest.size << " x min(cores, "
            << largest.size << ") / T_1): " << Table::fmt(scale_ratio, 3)
            << " (1.0 = perfectly linear)\n";
  const double overhead_ratio =
      direct_s > 0.0 ? runs.front().wall_s / direct_s : 0.0;
  std::cout << "coordinator_overhead_ratio (T_1 / T_direct): "
            << Table::fmt(overhead_ratio, 3) << "\n";

  if (!json_out.empty()) {
    bench::MetricsJson metrics("fleet_scale");
    // Guarded: wall time of the largest fleet normalized by the best
    // speedup the hardware allows, relative to the single-instance fleet.
    metrics.add("fleet_scale_ratio", scale_ratio);
    // Guarded (once a baseline carries it): the one-instance fleet over the
    // direct run — the coordination tax on identical work.
    metrics.add("coordinator_overhead_ratio", overhead_ratio);
    // Informational: the raw curve and how much the balancer had to
    // intervene.
    metrics.add("fleet_direct_s", direct_s);
    for (const FleetRun& run : runs) {
      const std::string prefix = "fleet_" + std::to_string(run.size);
      metrics.add(prefix + "_wall_s", run.wall_s);
      metrics.add(prefix + "_steals", static_cast<double>(run.steals));
    }
    metrics.write(json_out);
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return 0;
}
