#pragma once
/// \file workload.hpp
/// The interface every benchmark workload implements, and the pieces they
/// share: run arguments, the metric catalogue they fill, and the common
/// accounting over returned session reports and recorded spans.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_report.hpp"
#include "ledger.hpp"

namespace bench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space, wiped per run
  std::size_t clients = 1;         ///< closed-loop concurrency (nproc - 1)
};

/// Named metric values checked against a fixed catalogue, so every run
/// prints exactly the catalogue's metrics in its order (a metric a workload
/// does not reach keeps 0) and a misspelt name fails loudly.
class MetricSet {
 public:
  explicit MetricSet(std::vector<Metric> catalogue);
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The end-to-end catalogue (every workload, untraced run) and the
/// per-layer catalogue (every workload, traced run).
[[nodiscard]] std::vector<Metric> end_to_end_catalogue();
[[nodiscard]] std::vector<Metric> per_layer_catalogue();

/// Everything a workload run reports.
struct WorkloadResult {
  MetricSet end_to_end{end_to_end_catalogue()};
  MetricSet per_layer{per_layer_catalogue()};
  Tally tally;
  std::string digest;                     ///< deterministic report digest
  std::vector<std::string> notes;         ///< printed before the result
  std::vector<emutile::TraceSpan> trace;  ///< traced run's span forest
};

/// Quality over a fixed, seed-determined set of completed sessions
/// (deterministic for a seed): the paper's CAD-effort metric and the
/// detect / clean / site-retention fractions.
struct Quality {
  std::size_t completed = 0;
  std::size_t detected = 0;
  std::size_t clean = 0;
  std::size_t retained = 0;  ///< detected, injected cell among the suspects
  double debug_work = 0.0;   ///< summed debug-ECO work units

  void add(const emutile::DebugSessionReport& r);
  void fill(WorkloadResult& result) const;
};

/// A session outcome's deterministic fields as one string: what must repeat
/// exactly whenever the same job runs again.
[[nodiscard]] std::string session_fingerprint(
    const emutile::SessionOutcome& outcome);

/// Closed loop: `clients` threads each take the next request index from
/// `next_index` and run `request(index, client)` (`client` numbers the
/// thread, 0..clients-1) until `seconds` have passed, at least
/// `min_requests` were taken, and the next index is a multiple of
/// `granularity` (whole passes over a job list). `next_index` carries on
/// across calls so later phases draw fresh indices. Returns the wall time
/// until the last request finished. An exception from `request` stops the
/// loop and is rethrown after every thread joined.
double closed_loop(std::size_t clients, double seconds,
                   std::size_t min_requests, std::size_t granularity,
                   std::size_t& next_index,
                   const std::function<void(std::size_t, std::size_t)>& request);

/// What one finished request hands back to its phase.
struct Sample {
  double latency_s = 0.0;
  std::size_t sessions = 0;  ///< sessions it completed or delivered
};

/// One measured phase: the samples of a closed loop and, when traced, the
/// span forest recorded meanwhile.
struct Phase {
  std::vector<double> latencies;
  std::size_t sessions = 0;
  double wall_s = 0.0;
  std::vector<emutile::TraceSpan> spans;
  std::uint64_t dropped = 0;  ///< spans the tracer's rings lost meanwhile

  [[nodiscard]] double sessions_per_s() const {
    return static_cast<double>(sessions) / wall_s;
  }
};

/// Run a closed loop (see closed_loop; its tail needs 100 requests) and
/// collect the samples requests return. A request that returns nullopt
/// failed before finishing and adds no sample.
Phase run_phase(std::size_t clients, double seconds, std::size_t granularity,
                bool traced, std::size_t& next_index,
                const std::function<std::optional<Sample>(std::size_t,
                                                          std::size_t)>& request);

/// Time kSetupReps set-ups and record their median as setup_s. Each
/// repetition first calls `tear_down` (untimed) to drop the previous one.
void time_setup(const std::function<void()>& tear_down,
                const std::function<void(int rep)>& set_up,
                WorkloadResult& result);

/// Record an untraced phase: sessions_per_s, request latencies and their
/// sample counts. `alias` says what one request is.
void fill_untraced(const Phase& plain, const std::string& alias,
                   WorkloadResult& result);

/// Record a traced phase: the tracing overhead against `plain`, the
/// span-derived layer metrics per request, and its spans as the run's trace.
void fill_traced(const Phase& plain, Phase& traced, WorkloadResult& result);

/// A campaign run directly in-process, outside any timed section: the
/// engine's own path (expand, run_campaign_session with a shared warm-start
/// cache, build_report), keeping each session's report for quality checks.
struct DirectRun {
  emutile::CampaignReport report;
  std::vector<emutile::SessionOutcome> outcomes;
};
[[nodiscard]] DirectRun run_direct(const emutile::CampaignSpec& spec,
                                   std::size_t threads);

/// Canonical 6-tile tiling, 128-pattern campaign over `designs`, all three
/// error kinds x `replicas`: the campaign shape every workload submits.
[[nodiscard]] emutile::CampaignSpec make_campaign(
    const std::vector<std::string>& designs, int replicas,
    std::uint64_t master_seed);

/// Master seed of the fixed corpus every workload derives its deterministic
/// quality metrics from (the same for every --seed, so those metrics are a
/// property of the code, not of the seed).
inline constexpr std::uint64_t kCorpusSeed = 20'001'016;

/// Seconds since `t0`.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mix the workload seed with a stream index (splitmix64 finalizer), so
/// every input a workload draws is a pure function of --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

void run_sessions(const RunArgs& args, WorkloadResult& result);
void run_daemon(const RunArgs& args, WorkloadResult& result);
void run_fleet(const RunArgs& args, WorkloadResult& result);

}  // namespace bench
