#pragma once
/// \file campaign_coordinator.hpp
/// Multi-host campaign orchestration: one CampaignSpec fanned out across an
/// elastic fleet of serviced instances and merged back into a single report.
///
/// The coordinator composes the pieces the lower layers already guarantee:
/// CampaignSpec::shard(i, n) slices the canonical job list without changing
/// any job's identity or seed (and CampaignSpec::slice(b, e) narrows a shard
/// to an explicit job range the same way); each serviced instance runs its
/// shard to a deterministic report; CampaignReport::merge recombines shard
/// reports byte-identically to an unsharded run_campaign. What the
/// coordinator adds is the traffic engineering in between:
///
///   dispatch     shards are SUBMITted over the healthy instances (unix:
///                or tcp: addresses, via ServiceClient). Placement prefers
///                the instance whose result/baseline caches already hold a
///                shard's sessions (the coordinator remembers which job
///                ranges each instance has seen); ties fall back to
///                round-robin
///   supervision  completion-driven: every in-flight shard has one WAIT
///                parked on its own connection, and the loop's only wait is
///                one poll(2) over those sockets, so a shard is collected
///                the moment its campaign turns terminal.
///                STATUS is polled every poll_interval for what WAIT cannot
///                say — progress, stalls, draining, steal decisions — and
///                per-instance progress and merged totals stream out via
///                on_snapshot. STATUS rides an opt-in persistent
///                connection, so fleet polling does not pay a dial per tick
///                on TCP
///   re-dispatch  an instance that dies (connection refused), hangs past
///                stall_deadline without progress, rejects a SUBMIT
///                (ServiceError code `busy`), or whose campaign ends
///                failed/cancelled is marked unhealthy and its shard is
///                re-dispatched — cache-affinity placement routes it to
///                wherever its sessions are already cached, and the
///                deterministic seeds make any re-run byte-identical
///   work stealing  when an instance drains its shard early and sits idle,
///                the coordinator splits the slowest in-flight shard's
///                remaining job range in two (CampaignSpec::slice), keeps
///                the first half where its cache is warm, and hands the
///                second half to the idle instance. Merged reports stay
///                byte-identical because every job's seed is (scenario,
///                replica)-derived, not placement-derived
///   elasticity   the fleet is reconcilable mid-campaign: a changed fleet
///                file (watched by mtime, or forced via reload_flag /
///                SIGHUP in the orchestrate tool) joins new instances into
///                the rotation — they pick up re-dispatched and stolen work —
///                and retires missing ones (no new dispatches; in-flight
///                shards are still collected). Departures are the existing
///                drain/death paths
///   rolling upgrades  a draining instance (DRAIN/SIGUSR2, surfacing as
///                ServiceError code `draining` on SUBMIT and draining=1 on
///                STATUS) is taken out of the dispatch rotation but its
///                in-flight shards are still collected — it finishes what
///                it holds. Unhealthy instances are re-probed with PING
///                every reprobe_interval, so a replacement daemon on
///                the same address (restarted with --attach) rejoins the
///                rotation mid-run — the fleet rolls through an upgrade one
///                instance at a time without losing submitted work
///   degradation  when no healthy instance remains (or none ever existed),
///                remaining shards run in-process via run_campaign — the
///                fleet burning down degrades throughput, never correctness
///   collection   a WAIT answering `finished` (or a STATUS seeing it,
///                confirmed by WAIT) means the report is on disk: it is
///                fetched over SHARDREPORT at once and parsed from the
///                mergeable wire format (campaign_report_io). A WAIT
///                answering cancelled/failed re-dispatches the shard; one
///                that errors or drops falls through to STATUS, so a dead
///                instance's shard moves without waiting for the tick.
///                The fleet trace stitch asks each instance for this run's
///                spans only
///
/// Determinism contract: run() returns a report whose to_csv()/to_json()
/// bytes equal a direct run_campaign(spec) of the same unsharded spec, no
/// matter how shards were placed, stolen, re-dispatched, or how many fell
/// back to local execution.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/adaptive_driver.hpp"
#include "campaign/campaign_report.hpp"
#include "campaign/campaign_spec.hpp"
#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orchestrator/fleet_config_io.hpp"
#include "service/address.hpp"

namespace emutile {

class ServiceClient;

/// Where one shard currently stands.
enum class ShardState : std::uint8_t {
  kPending,  ///< waiting for a (re-)dispatch
  kRemote,   ///< submitted to an instance, in flight
  kLocal,    ///< running in-process (fallback)
  kDone      ///< shard report collected
};

[[nodiscard]] const char* to_string(ShardState state);

struct ShardProgress {
  std::size_t shard = 0;         ///< shard index (0-based; steals append)
  ShardState state = ShardState::kPending;
  std::string instance;          ///< serving instance name; "local" fallback
  std::string campaign_id;       ///< remote campaign id (empty until known)
  std::size_t sessions_done = 0;
  std::size_t sessions_total = 0;
  std::size_t dispatches = 0;    ///< submission attempts so far
};

/// Point-in-time aggregate streamed to CoordinatorOptions::on_snapshot.
struct FleetSnapshot {
  std::vector<ShardProgress> shards;
  std::size_t sessions_done = 0;   ///< merged partial across all shards
  std::size_t sessions_total = 0;
  std::size_t shards_done = 0;
  std::size_t healthy_instances = 0;
  std::size_t total_instances = 0;
};

struct CoordinatorOptions {
  /// How many shards to slice the spec into; 0 means one per fleet instance.
  std::size_t num_shards = 0;
  /// Priority forwarded to every SUBMIT.
  int priority = 0;
  /// STATUS poll cadence: progress, stall detection, draining and work
  /// stealing. Shards are collected when their WAIT answers, not on this
  /// cadence. Must be positive.
  std::chrono::milliseconds poll_interval{200};
  /// Re-dispatch a shard whose instance reported no progress for this long
  /// (0 disables stall detection): how a daemon that still accepts
  /// connections but has hung is caught. Size it to the slowest expected
  /// session (an over-eager deadline still converges: after exhausting the
  /// fleet the shard runs in-process, merely wasting remote work).
  std::chrono::milliseconds stall_deadline{600'000};
  /// Per-exchange receive timeout.
  int request_timeout_ms = 30'000;
  /// PING unhealthy instances on this cadence and return answering ones
  /// to the dispatch rotation — how a daemon restarted on the same
  /// address (rolling upgrade with --attach) rejoins a run in progress.
  /// Dead addresses keep failing the ping and stay out. 0 disables
  /// re-probing.
  std::chrono::milliseconds reprobe_interval{2'000};
  /// Worker threads for shards that fall back to in-process execution.
  std::size_t local_threads = 2;
  /// When false, a fully-failed fleet raises CheckError instead of running
  /// remaining shards in-process.
  bool allow_local_fallback = true;
  /// When set, re-read this fleet file whenever its mtime changes (and when
  /// `reload_flag` fires) and reconcile membership mid-campaign: new names
  /// join, missing names retire, changed addresses reconnect.
  std::filesystem::path fleet_file;
  /// Optional caller-owned flag (e.g. flipped by a SIGHUP handler): when
  /// found true it is cleared and `fleet_file` is re-read immediately.
  std::atomic<bool>* reload_flag = nullptr;
  /// Streamed once per supervision pass — every poll tick and every WAIT
  /// that wakes the loop — with the current fleet aggregate.
  std::function<void(const FleetSnapshot&)> on_snapshot;
  /// After every shard is collected, fetch METRICS from each instance and
  /// merge the registries into OrchestrationResult::fleet_metrics — the
  /// fleet-wide observability view next to the fleet-wide report. Instances
  /// that fail the fetch are skipped (metrics are never worth a re-dispatch).
  bool collect_metrics = true;
  /// Optional caller-owned journal (e.g. the orchestrate tool's
  /// events.jsonl): dispatch/retry/steal/join/local-fallback/collect records
  /// stream into it as the run progresses. May be null; must outlive run().
  EventJournal* journal = nullptr;
  /// Trace context the whole run is parented on. Invalid (the default) mints
  /// a fresh trace per run(); the orchestrate tool passes its own root so a
  /// re-used coordinator keeps one trace per invocation.
  TraceContext trace{};
  /// After every shard is collected, fetch this run's spans (TRACESPANS
  /// <trace id>) from each instance, shift them onto the local clock
  /// (clock-offset correction via the request/reply midpoint), and stitch
  /// everything reachable under this run's trace id into
  /// OrchestrationResult::fleet_trace. Same best-effort stance as
  /// collect_metrics.
  bool collect_trace = true;
};

/// What an orchestrated campaign produced, beyond the merged report.
struct OrchestrationResult {
  CampaignReport report;         ///< merged; byte-identical to unsharded run
  std::size_t num_shards = 0;    ///< final count, steals included
  std::size_t redispatches = 0;  ///< dispatches beyond each shard's first
  std::size_t local_shards = 0;  ///< shards that ran in-process
  std::size_t steals = 0;        ///< shard splits handed to idle instances
  /// Dispatches routed by cache-affinity (the chosen instance had already
  /// seen part of the shard's job range).
  std::size_t affinity_dispatches = 0;
  std::size_t joined_instances = 0;  ///< instances that joined mid-campaign
  std::vector<ShardProgress> shards;  ///< final per-shard state
  /// Sum of every reachable instance's metrics registry (counters add,
  /// histogram buckets add — see MetricsSnapshot::merge). Empty when
  /// collect_metrics is off or no instance answered.
  MetricsSnapshot fleet_metrics;
  std::size_t metrics_instances = 0;  ///< instances that contributed
  /// Closed spans from this run's trace, stitched across the fleet: the
  /// coordinator's own spans plus every reachable instance's, clock-
  /// offset-corrected, deduplicated by span id, sorted by start. Empty when
  /// collect_trace is off.
  std::vector<TraceSpan> fleet_trace;
  std::size_t trace_instances = 0;  ///< instances that contributed spans
  TraceContext trace{};             ///< the run's root context
};

class CampaignCoordinator {
 public:
  explicit CampaignCoordinator(FleetConfig fleet,
                               CoordinatorOptions options = {});
  ~CampaignCoordinator();  // out-of-line: members of nested incomplete types

  /// Orchestrate `spec` across the fleet and block until the merged report
  /// is complete. The spec must be unsharded and unsliced (the coordinator
  /// owns the slicing) and serializable (catalog designs only) to travel
  /// the wire; a custom-builder spec runs entirely in-process. Throws
  /// CheckError when a shard cannot be completed anywhere (e.g. fallback
  /// disabled and every instance down).
  [[nodiscard]] OrchestrationResult run(const CampaignSpec& spec);

 private:
  struct ShardWork;
  struct InstanceState;

  /// The instance's (lazily dialed, persistent-enabled) client.
  [[nodiscard]] ServiceClient& client_for(InstanceState& instance);
  /// Submit `shard` to the best instance (preference, then cache affinity,
  /// then round-robin); true on success. Marks instances it fails against
  /// unhealthy.
  [[nodiscard]] bool dispatch(ShardWork& shard);
  /// One STATUS/report-collection pass over an in-flight shard. May flip it
  /// to kDone or back to kPending (failure → re-dispatch).
  void poll_shard(ShardWork& shard);
  /// Send an in-flight shard back to kPending for re-dispatch; a dead
  /// instance also leaves the rotation.
  void give_back(ShardWork& shard, const std::string& why,
                 bool instance_dead);
  /// Mark a shard kDone with its report.
  void collect(ShardWork& shard, CampaignReport report);
  /// The shard's parked WAIT turned readable: read and close it, then
  /// collect, re-dispatch, or fall back to a STATUS poll.
  void on_wait_reply(ShardWork& shard);
  /// The loop's only wait: one poll(2) over the in-flight shards' WAIT
  /// sockets until `until`; every socket that answers is handled at once.
  void await_completions(std::chrono::steady_clock::time_point until);
  void run_local(ShardWork& shard);
  /// Split the slowest in-flight shard for an idle instance, if any.
  void maybe_steal();
  /// Reconcile live membership with a freshly-parsed fleet config.
  void apply_fleet(const FleetConfig& fresh);
  /// Reload flag + fleet-file mtime watch, once per tick.
  void poll_membership();
  [[nodiscard]] FleetSnapshot snapshot() const;

  FleetConfig fleet_;
  CoordinatorOptions options_;
  // Per-run state (run() resets everything; a coordinator may be reused).
  std::vector<std::unique_ptr<ShardWork>> shards_;  ///< stable addresses
  std::vector<InstanceState> instances_;
  bool serializable_ = false;
  std::size_t rr_cursor_ = 0;     ///< round-robin dispatch position
  std::size_t redispatches_ = 0;
  std::size_t local_shards_ = 0;
  std::size_t steals_ = 0;
  std::size_t affinity_dispatches_ = 0;
  std::size_t joined_instances_ = 0;
  std::filesystem::file_time_type fleet_file_mtime_{};
  TraceContext run_root_{};       ///< this run's orchestrate.run context
};

/// Adaptive-round executor backed by a fleet coordinator: each round is
/// orchestrated like any campaign — sharded across the serviced instances,
/// supervised, re-dispatched on failure, merged — so an adaptive campaign's
/// follow-up rounds simply become extra shards flowing over the fleet. The
/// coordinator must outlive the returned executor.
[[nodiscard]] AdaptiveRoundExecutor make_adaptive_executor(
    CampaignCoordinator& coordinator);

}  // namespace emutile
