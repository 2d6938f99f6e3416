/// Session phase-profile bench: where does a debug session's wall time go,
/// and what do the big-design throughput optimizations buy?
///
/// Runs the same campaign grid twice over the paper's large designs:
///   legacy  cold build per session + per-iteration probe insert/remove
///           (warm_start off, persistent_probes off — the pre-batching path)
///   current warm-started builds (shared pre-injection tiled baseline per
///           (design, tiling) pair) + persistent, retargeted probe logic
/// then prints the per-phase wall-clock breakdown (inject/build/detect/
/// localize/correct/verify) and the mean session wall-time reduction.
///
///   $ ./session_profile [--designs a,b] [--sessions N] [--tiles N]
///                       [--patterns N] [--threads N] [--json PATH]
///
/// Defaults run the MIPS/DES grid. `--json` writes the MetricsJson document
/// the perf-regression CI lane (scripts/ci.sh perf) compares against
/// bench/baselines/session_profile.json; the guarded keys are ratios and
/// work units, which transfer across machines.

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "campaign/campaign_engine.hpp"
#include "debug/debug_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

using namespace emutile;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

double mean_or_zero(const Accumulator& a) {
  return a.count() ? a.mean() : 0.0;
}

/// A generous per-session budget of metric record operations: endpoint +
/// scheduler + cache counters, six phase histograms, localizer work counters
/// — a real session issues well under this.
constexpr std::uint64_t kRecordOpsPerSession = 1000;

/// Calibrate the per-operation cost of the metrics hot path (one counter add
/// plus one histogram record on pre-resolved handles, the way instrumented
/// code actually uses them) and return the projected overhead as a percent
/// of `session_wall_s`.
double metrics_overhead_pct(double session_wall_s) {
  MetricsRegistry registry;
  MetricCounter& counter = registry.counter("bench.calibration.count");
  MetricHistogram& hist = registry.histogram("bench.calibration.us");
  constexpr std::uint64_t kCalibrationOps = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalibrationOps; ++i) {
    counter.add();
    hist.record(i & 0xFFFF);
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Defeat dead-code elimination of the whole loop.
  if (counter.value() > kCalibrationOps || hist.sum() == 1)
    std::cerr << "calibration anomaly\n";
  if (session_wall_s <= 0.0) return 0.0;
  const double per_op_s = elapsed_s / static_cast<double>(kCalibrationOps);
  return 100.0 * per_op_s * static_cast<double>(kRecordOpsPerSession) /
         session_wall_s;
}

/// Spans a session actually opens: one session.run, six phases, a cache
/// lookup, and a localizer.round per iteration — tens, not hundreds. 64 is
/// comfortably above the real count.
constexpr std::uint64_t kSpanOpsPerSession = 64;

/// Same calibration for the tracing hot path: one full ScopedSpan
/// open/close cycle (TLS frame push/pop + striped ring append), projected
/// onto a per-session span budget.
double tracing_overhead_pct(double session_wall_s) {
  Tracer tracer;
  constexpr std::uint64_t kCalibrationSpans = 100'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalibrationSpans; ++i) {
    const ScopedSpan span(tracer, "bench.calibration.span");
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Defeat dead-code elimination: the tracer must have buffered something
  // (ring capacity bounds how much survives).
  if (tracer.collect(false).empty())
    std::cerr << "calibration anomaly\n";
  if (session_wall_s <= 0.0) return 0.0;
  const double per_span_s = elapsed_s / static_cast<double>(kCalibrationSpans);
  return 100.0 * per_span_s * static_cast<double>(kSpanOpsPerSession) /
         session_wall_s;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> designs{"MIPS R2000", "DES"};
  int sessions = 3;
  int tiles = 12;
  std::size_t patterns = 192;
  std::size_t threads = std::max(2u, std::thread::hardware_concurrency());
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--designs") designs = split_csv(need("--designs"));
    else if (arg == "--sessions") sessions = std::atoi(need("--sessions"));
    else if (arg == "--tiles") tiles = std::atoi(need("--tiles"));
    else if (arg == "--patterns")
      patterns = std::strtoull(need("--patterns"), nullptr, 10);
    else if (arg == "--threads")
      threads = std::strtoull(need("--threads"), nullptr, 10);
    else if (arg == "--json") json_out = need("--json");
    else {
      std::cerr << "usage: session_profile [--designs a,b] [--sessions N] "
                   "[--tiles N] [--patterns N] [--threads N] [--json PATH]\n";
      return 2;
    }
  }

  bench::banner("Session phase profile: batched probes + warm-start tiling",
                "the per-iteration CAD-effort claims, wall-clock,");

  int max_clbs = 0;
  for (const std::string& name : designs)
    max_clbs = std::max(max_clbs, paper_design(name).clbs);

  CampaignSpec spec;
  for (const std::string& name : designs) spec.add_catalog_design(name);
  spec.master_seed = 2000;
  spec.sessions_per_scenario = sessions;
  spec.num_patterns = patterns;
  spec.tilings.clear();
  TilingParams tp;
  tp.num_tiles = tiles;
  tp.target_overhead = 0.22;
  tp.placer_effort = bench::effort_for(max_clbs);
  tp.tracks_per_channel = bench::tracks_for(max_clbs);
  spec.tilings.push_back(tp);

  std::cout << "grid: " << spec.designs.size() << " designs x "
            << spec.error_kinds.size() << " error kinds x " << sessions
            << " sessions = " << spec.num_sessions() << " sessions per mode, "
            << threads << " threads\n\n";

  // Legacy mode: the pre-batching hot path — every session pays a full
  // build, every localizer iteration an insert/remove ECO pair.
  CampaignSpec legacy_spec = spec;
  legacy_spec.localizer.persistent_probes = false;
  CampaignOptions legacy_opts;
  legacy_opts.num_threads = threads;
  legacy_opts.warm_start = false;
  std::cout << "legacy mode (cold builds, per-iteration probe ECOs)...\n";
  const CampaignReport legacy = run_campaign(legacy_spec, legacy_opts);
  std::cout << "  " << Table::fmt(legacy.wall_seconds, 1) << " s wall\n\n";

  CampaignOptions current_opts;
  current_opts.num_threads = threads;
  std::cout << "current mode (warm-start baselines, persistent probes)...\n";
  const CampaignReport current = run_campaign(spec, current_opts);
  std::cout << "  " << Table::fmt(current.wall_seconds, 1) << " s wall\n\n";

  std::cout << "per-scenario phase breakdown (current mode, mean seconds):\n"
            << current.timing_csv() << "\n";

  const double legacy_mean = mean_or_zero(legacy.session_wall);
  const double current_mean = mean_or_zero(current.session_wall);
  const double wall_ratio =
      legacy_mean > 0.0 ? current_mean / legacy_mean : 1.0;
  const double legacy_work = mean_or_zero(legacy.debug_work);
  const double current_work = mean_or_zero(current.debug_work);
  const double work_ratio = legacy_work > 0.0 ? current_work / legacy_work : 1.0;
  const std::size_t timed = current.session_wall.count();
  const double cold_ratio =
      timed ? 1.0 - static_cast<double>(current.warm_builds) /
                        static_cast<double>(timed)
            : 1.0;

  std::cout << "mean session wall: legacy " << Table::fmt(legacy_mean, 3)
            << " s -> current " << Table::fmt(current_mean, 3) << " s ("
            << Table::fmt(100.0 * (1.0 - wall_ratio), 1) << "% reduction)\n"
            << "mean debug-ECO work units: legacy "
            << Table::fmt(legacy_work, 0) << " -> current "
            << Table::fmt(current_work, 0) << " ("
            << Table::fmt(100.0 * (1.0 - work_ratio), 1) << "% reduction)\n"
            << "warm-started builds: " << current.warm_builds << " of "
            << timed << " sessions\n";

  // Observability overhead gate: the metrics and tracing layers' combined
  // recording cost, each calibrated per-op and projected onto a generous
  // per-session op budget, must stay under 2% of the mean session wall time.
  const double overhead_pct = metrics_overhead_pct(current_mean);
  const double trace_pct = tracing_overhead_pct(current_mean);
  const double combined_pct = overhead_pct + trace_pct;
  std::cout << "metrics recording overhead: " << Table::fmt(overhead_pct, 3)
            << "% of mean session wall (budget " << kRecordOpsPerSession
            << " ops/session)\n"
            << "tracing span overhead: " << Table::fmt(trace_pct, 3)
            << "% of mean session wall (budget " << kSpanOpsPerSession
            << " spans/session)\n"
            << "combined observability overhead: "
            << Table::fmt(combined_pct, 3) << "% (gate < 2%)\n";
  if (combined_pct >= 2.0) {
    std::cerr << "FAIL: metrics+tracing overhead " << combined_pct
              << "% >= 2% of session wall time\n";
    return 1;
  }

  if (!json_out.empty()) {
    bench::MetricsJson metrics("session_profile");
    // Guarded: ratios and work units transfer across machines.
    metrics.add("session_wall_ratio", wall_ratio);
    metrics.add("debug_work_ratio", work_ratio);
    metrics.add("cold_build_ratio", cold_ratio);
    metrics.add("debug_work_units", current_work);
    // Informational. (The overhead keys are deliberately not guarded
    // `_ratio` keys: the <2% gate above already enforces them exactly.)
    metrics.add("metrics_overhead_pct", overhead_pct);
    metrics.add("tracing_overhead_pct", trace_pct);
    metrics.add("observability_overhead_pct", combined_pct);
    metrics.add("mean_session_wall_legacy_s", legacy_mean);
    metrics.add("mean_session_wall_current_s", current_mean);
    for (std::size_t p = 0; p < kNumSessionPhases; ++p)
      metrics.add(std::string(to_string(static_cast<SessionPhase>(p))) +
                      "_mean_s",
                  mean_or_zero(current.phase_wall[p]));
    metrics.write(json_out);
  }
  return 0;
}
