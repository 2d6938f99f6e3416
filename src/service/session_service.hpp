#pragma once
/// \file session_service.hpp
/// The campaign session service: a long-lived engine that accepts
/// CampaignSpec submissions, schedules their sessions concurrently on one
/// shared worker pool (per-campaign priorities, fair interleaving,
/// cooperative cancellation), streams incremental CampaignReport snapshots,
/// and memoizes session results on disk.
///
/// Directory layout under ServiceConfig::root:
///
///   spool/              file-queue intake: drop `<name>.spec` files here
///   spool/archive/      accepted spec files, moved after parsing
///   spool/rejected/     malformed spec files + `<name>.error` sidecars
///   cache/              the shared session ResultCache
///   out/<id>/spec.txt   canonical serialization of the accepted spec
///   out/<id>/journal.wal  per-campaign write-ahead journal (campaign_wal):
///                         spec hash + per-session completion records, what
///                         reattach() replays after a crash
///   out/<id>/snapshot-NNN.json   streamed partial reports (every
///                                snapshot_every completed sessions)
///   out/<id>/report.json|.csv    final deterministic report
///   out/<id>/report.shard        mergeable form (campaign_report_io) served
///                                over the SHARDREPORT wire command
///   out/<id>/error.txt  present iff the campaign failed outright
///   out/<id>.stale/     a surviving dir reattach() could not validate
///                       (no/poisoned journal, spec-hash mismatch), archived
///                       out of the way instead of silently shadowed
///
/// Determinism contract: out/<id>/report.json and report.csv are
/// byte-identical to to_json()/to_csv() of a direct run_campaign() of the
/// same spec, regardless of worker count, concurrent campaigns, or whether
/// sessions came from the cache. Snapshots are partial aggregates over
/// whichever sessions had finished and therefore may vary run to run — but
/// their session counts grow monotonically within a campaign.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/adaptive_driver.hpp"
#include "campaign/campaign_engine.hpp"
#include "campaign/result_cache.hpp"
#include "core/tiled_baseline_cache.hpp"
#include "obs/event_journal.hpp"
#include "obs/trace.hpp"
#include "service/job_scheduler.hpp"
#include "util/check.hpp"
#include "util/mpmc_queue.hpp"

namespace emutile {

struct ServiceConfig {
  std::filesystem::path root;   ///< spool/, cache/, and out/ live here
  std::size_t num_threads = 2;  ///< shared worker pool size
  /// Stream a snapshot every this many completed sessions (0 disables
  /// intermediate snapshots; the final report is always written).
  std::size_t snapshot_every = 8;
  bool enable_cache = true;
  /// Size bound for the result cache (ResultCache::set_max_bytes): after a
  /// store pushes the cache past this many bytes of entries, oldest-mtime
  /// entries are evicted until it fits. 0 means unbounded.
  std::size_t cache_max_bytes = 0;
  /// Backpressure: when more than this many campaigns are queued or running,
  /// submit() throws ServiceBusyError (the endpoint answers `ERR busy`)
  /// instead of accepting — a misbehaving submitter cannot OOM the daemon.
  /// The submit intake ring is sized to cover this bound (at least 1024
  /// slots). 0 means unbounded.
  std::size_t max_pending = 0;
  /// Bound on the warm-start baseline cache (pre-injection tiled designs
  /// shared by every session of a (design, tiling) pair, across campaigns):
  /// least-recently-used entries are dropped past this count. A tiled
  /// baseline of a big design is tens of MB, so the default stays small.
  /// 0 means unbounded.
  std::size_t baseline_cache_entries = 8;
  /// Write an append-only `out/<id>/events.jsonl` audit journal per campaign
  /// (submit/schedule/session-start/cache-hit/finalize records). The journal
  /// carries wall-progression timestamps and therefore lives strictly
  /// outside the deterministic report artifacts.
  bool enable_journal = true;
  /// Slow-span watchdog: WARN (with the span path) when a session's wall
  /// time exceeds this multiple of the running `session.wall_us` p99, once
  /// at least 20 sessions have been recorded. Counted as
  /// `service.slow_sessions`. <= 0 disables the watchdog.
  double slow_session_multiple = 4.0;
  /// QoS: the largest campaign (spec.num_sessions()) one submit may carry.
  /// Over-quota campaigns are shed with ServiceBusyError (the endpoint
  /// answers `ERR busy`) and counted as `service.sheds_quota`. 0 disables.
  std::size_t session_quota = 0;
  /// QoS: default relative deadline applied to submits that carry none.
  /// When a deadline is in force and the observed `session.wall_us` p99
  /// (>= 20 samples) times the work already queued says it cannot be met,
  /// the submit is shed with ServiceOverdeadlineError (`ERR overdeadline`,
  /// counted as `service.sheds_overdeadline`). 0 means no default deadline.
  std::uint64_t deadline_default_ms = 0;
};

/// Thrown by submit() when the bounded campaign queue (max_pending) is full
/// or the spec exceeds the per-campaign session quota. The spec was not
/// accepted; resubmit later, smaller, or to another instance.
class ServiceBusyError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Thrown by submit() when admission control concludes the requested
/// relative deadline cannot be met given the observed session-latency p99
/// and the work already queued. The spec was not accepted.
class ServiceOverdeadlineError : public CheckError {
 public:
  using CheckError::CheckError;
};

enum class CampaignState : std::uint8_t {
  kQueued,    ///< accepted, waiting for its first unit to run
  kRunning,   ///< sessions in flight
  kFinished,  ///< final report written
  kCancelled, ///< cancelled; report written with cancelled sessions counted
  kFailed     ///< spec expansion or every-design build failed outright
};

[[nodiscard]] const char* to_string(CampaignState state);

/// A point-in-time view of one campaign.
struct CampaignStatus {
  std::string id;
  CampaignState state = CampaignState::kQueued;
  int priority = 0;
  std::size_t sessions_done = 0;
  std::size_t sessions_total = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t snapshots = 0;  ///< intermediate snapshots streamed so far
  /// Sessions restored from the journal + result cache by a reattach()
  /// resume instead of being re-executed. Zero for campaigns born in this
  /// process.
  std::size_t replayed = 0;
  std::string error;          ///< nonempty iff state == kFailed
  std::filesystem::path out_dir;
};

/// What reattach() did with the surviving output directories.
struct ReattachStats {
  std::size_t resumed = 0;      ///< unfinished campaigns rescheduled mid-stream
  std::size_t completed = 0;    ///< terminal campaigns re-registered for STATUS/WAIT
  std::size_t archived = 0;     ///< unvalidatable dirs moved to out/<id>.stale
  std::size_t resubmitted = 0;  ///< archived specs re-run as fresh campaigns
};

class SessionService {
 public:
  explicit SessionService(ServiceConfig config);

  /// Cancels everything still queued and drains in-flight work.
  ~SessionService();

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Accept a campaign: run admission control (max_pending, session quota,
  /// deadline feasibility), allocate an id, register the campaign, and hand
  /// it to the dispatcher thread which persists the canonical spec and
  /// schedules it — submit() itself does no disk writes, so SUBMIT latency
  /// is decoupled from spec persistence and scheduling. Returns the
  /// campaign id immediately; execution is asynchronous. `name_hint` seeds
  /// the id (sanitized). A valid `trace` parents the campaign's spans on
  /// the submitter's span (the endpoint passes its request span); an
  /// invalid one roots a fresh trace for the campaign. `deadline_ms` is the
  /// relative completion deadline for admission control (0 = use
  /// config.deadline_default_ms; both 0 = no deadline).
  std::string submit(const CampaignSpec& spec, int priority = 0,
                     const std::string& name_hint = "",
                     TraceContext trace = {}, std::uint64_t deadline_ms = 0);

  /// Parse `text` as a campaign spec and submit it. Throws CheckError on
  /// malformed input (nothing is scheduled in that case).
  std::string submit_text(const std::string& text, int priority = 0,
                          const std::string& name_hint = "",
                          TraceContext trace = {},
                          std::uint64_t deadline_ms = 0);

  /// Scan spool/ once: every `*.spec` file is parsed and submitted (then
  /// moved to spool/archive/), malformed ones are moved to spool/rejected/
  /// with an `.error` sidecar. Returns the number of accepted campaigns.
  std::size_t poll_spool();

  [[nodiscard]] std::optional<CampaignStatus> status(
      const std::string& id) const;

  /// Status of every campaign, in submission order.
  [[nodiscard]] std::vector<CampaignStatus> list() const;

  /// Cooperatively cancel a campaign: queued sessions are recorded as
  /// cancelled, running sessions stop at their next phase boundary, and the
  /// final report still gets written. Returns false for unknown ids.
  bool cancel(const std::string& id);

  /// Block until the campaign reaches a terminal state. Throws CheckError
  /// for unknown ids.
  void wait(const std::string& id);

  /// Like wait(), but gives up after `timeout`; returns true iff the
  /// campaign is terminal. Lets callers that must stay interruptible (e.g.
  /// the endpoint's WAIT handler during daemon shutdown) poll instead of
  /// blocking indefinitely.
  [[nodiscard]] bool wait_for(const std::string& id,
                              std::chrono::milliseconds timeout);

  /// Called with a campaign's id each time it turns terminal (finished,
  /// cancelled or failed). One listener at most: setting one replaces the
  /// previous, nullptr detaches it, and once this returns the old listener
  /// is never called again. The listener runs under the service mutex, so it
  /// must be cheap and must not call back into the service. The reactor
  /// endpoint uses it to wake the WAITs it parked on that campaign.
  void set_terminal_listener(
      std::function<void(const std::string&)> listener);

  /// Block until every submitted campaign reaches a terminal state.
  void drain();

  /// Re-attach to the output directories a previous daemon left under
  /// root/out: a dir whose journal validates against its spec.txt is either
  /// re-registered terminal (journal complete — STATUS/WAIT answer for it
  /// again) or resumed mid-stream (journaled sessions replay through the
  /// result cache, only the remainder re-executes); anything unvalidatable
  /// is archived to out/<id>.stale and, when its spec still parses,
  /// resubmitted as a fresh campaign. Call once, after construction and
  /// before serving clients — it assumes an empty registry.
  ReattachStats reattach();

  /// Stop admitting work: every later submit()/submit_text() is shed with
  /// ServiceBusyError("draining: ..."). In-flight campaigns keep running —
  /// pair with drain() for the rolling-upgrade handoff (the daemon's
  /// SIGUSR2/DRAIN path). Irreversible for this instance.
  void begin_drain();

  /// True once begin_drain() was called.
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// The shared session cache (nullptr when disabled).
  [[nodiscard]] ResultCache* cache() { return cache_.get(); }

  /// Whole seconds since this service was constructed (daemon uptime).
  [[nodiscard]] std::uint64_t uptime_seconds() const;

  /// Campaigns currently in kQueued state.
  [[nodiscard]] std::size_t queued_count() const;

  /// Campaigns currently in kRunning state.
  [[nodiscard]] std::size_t running_count() const;

 private:
  struct Campaign;

  struct SnapshotData;

  /// Dispatcher thread body: pops admitted campaigns off the intake ring
  /// and runs dispatch_campaign on each; drains the ring before exiting.
  void dispatch_loop();
  /// The half of submission that touches disk: create the out dir, persist
  /// spec.txt, open the journal, schedule. Failures mark the campaign
  /// kFailed (terminal) — asynchronous submitters see it via status/wait.
  void dispatch_campaign(Campaign& c);
  /// Transition a campaign's state, keeping the O(1) queued/running
  /// counters truthful and telling the terminal listener when the campaign
  /// turns terminal. Caller holds mutex_.
  void set_state_locked(Campaign& c, CampaignState next);
  [[nodiscard]] Campaign* find_locked(const std::string& id) const;
  void schedule(Campaign& c);
  void prepare_unit(Campaign& c, bool cancelled);
  /// `enqueued_us` is the journal stamp taken when the unit entered the
  /// scheduler queue — the synthesized `scheduler.queue_wait` span runs
  /// from it to the unit's actual start.
  void session_unit(Campaign& c, std::size_t job_slot, bool cancelled,
                    std::uint64_t enqueued_us);
  void baseline_unit(Campaign& c, std::size_t pair_index, bool cancelled);
  /// Count one finished unit; true when it was the campaign's last (the
  /// caller must then run finalize() after releasing the lock).
  [[nodiscard]] bool unit_finished_locked(Campaign& c);
  /// Build and persist the final report. Called exactly once per campaign,
  /// by its last unit, outside the service mutex (all workers are done with
  /// the campaign, so its bulk state has no writers left).
  void finalize(Campaign& c);
  /// One reattach() directory: validate journal ↔ spec.txt ↔ report
  /// artifacts, then re-register terminal, resume, or archive(+resubmit).
  void reattach_dir(const std::filesystem::path& dir, ReattachStats& stats);
  [[nodiscard]] SnapshotData capture_snapshot_locked(Campaign& c);
  void write_snapshot(const Campaign& c, const SnapshotData& data);
  [[nodiscard]] CampaignStatus status_locked(const Campaign& c) const;

  ServiceConfig config_;
  std::unique_ptr<ResultCache> cache_;
  /// Warm-start baselines shared across campaigns. Content-keyed on
  /// (catalog design, design seed, full tiling params incl. the pair build
  /// seed), so reuse happens between campaigns that share a master seed —
  /// re-submissions, shards of one campaign, and adaptive rounds, the
  /// traffic a resident daemon actually sees. Different master seeds build
  /// genuinely different baselines and correctly miss.
  TiledBaselineCache baselines_;
  std::unique_ptr<JobScheduler> scheduler_;

  mutable std::mutex mutex_;  // campaign registry + per-campaign state
  std::condition_variable state_changed_;
  std::function<void(const std::string&)> terminal_listener_;  // mutex_
  std::vector<std::unique_ptr<Campaign>> campaigns_;  // submission order
  /// id -> campaign, so status/wait/cancel stay O(1) when thousands of
  /// campaigns have passed through (entries live as long as campaigns_).
  std::unordered_map<std::string, Campaign*> by_id_;
  /// O(1) state tallies so admission control never scans the registry.
  std::size_t queued_campaigns_ = 0;
  std::size_t running_campaigns_ = 0;
  std::size_t next_seq_ = 1;
  /// Lock-free handoff from submit() to the dispatcher thread. Holds
  /// registered campaigns (owned by campaigns_) awaiting persistence +
  /// scheduling; drained, never dropped, on shutdown.
  MpmcQueue<Campaign*> intake_;
  std::atomic<bool> intake_stop_{false};
  /// begin_drain() flips this once; submit paths shed on it lock-free.
  std::atomic<bool> draining_{false};
  std::thread dispatcher_;
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

/// Adaptive-round executor backed by a resident SessionService: each round's
/// spec is submitted (catalog designs only — rounds travel the wire format),
/// waited to a terminal state, and its mergeable out/<id>/report.shard
/// loaded back. Rounds ride the service's result cache, so re-running an
/// adaptive campaign against a warm cache re-submits its scenarios nearly
/// for free. Throws CheckError when a round ends failed or cancelled.
[[nodiscard]] AdaptiveRoundExecutor make_adaptive_executor(
    SessionService& service, int priority = 0);

}  // namespace emutile
