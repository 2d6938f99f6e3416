#include "service/session_service.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "service/campaign_wal.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"

namespace emutile {

const char* to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued: return "queued";
    case CampaignState::kRunning: return "running";
    case CampaignState::kFinished: return "finished";
    case CampaignState::kCancelled: return "cancelled";
    case CampaignState::kFailed: return "failed";
  }
  return "?";
}

namespace {

bool terminal(CampaignState state) {
  return state == CampaignState::kFinished ||
         state == CampaignState::kCancelled ||
         state == CampaignState::kFailed;
}

/// Slots in the lock-free intake ring between submit() and the dispatcher
/// thread. Occupancy is bounded by active campaigns, so a ring at least
/// max_pending deep never backpressures an admitted submit(); unbounded
/// services get the floor and block bounded-ly when it fills.
std::size_t intake_slots(const ServiceConfig& config) {
  return std::max<std::size_t>(1024, config.max_pending);
}

std::string sanitize_id(const std::string& hint) {
  std::string out;
  for (const char c : hint) {
    if (out.size() >= 24) break;
    if (std::isalnum(static_cast<unsigned char>(c)))
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    else if (c == '-' || c == '_' || c == '.')
      out.push_back('-');
  }
  return out.empty() ? "campaign" : out;
}

/// Move `from` into directory `dir`, uniquifying the name on collision.
void move_into(const std::filesystem::path& from,
               const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::filesystem::path to = dir / from.filename();
  for (int n = 1; std::filesystem::exists(to); ++n)
    to = dir / (from.stem().string() + "." + std::to_string(n) +
                from.extension().string());
  std::filesystem::rename(from, to);
}

}  // namespace

/// All mutable fields are guarded by the service mutex except cancel_flag,
/// which sessions poll lock-free at phase boundaries.
struct SessionService::Campaign {
  std::string id;
  CampaignSpec spec;
  /// Canonical spec text, carried from submit() to the dispatcher which
  /// persists it as out/<id>/spec.txt (empty for custom-builder specs).
  std::string canonical;
  int priority = 0;
  JobScheduler::StreamId stream = 0;
  std::filesystem::path out_dir;
  CampaignState state = CampaignState::kQueued;
  std::string error;
  std::atomic<bool> cancel_flag{false};
  std::vector<CampaignJob> jobs;
  std::vector<Netlist> goldens;
  std::vector<std::string> golden_errors;
  std::vector<SessionOutcome> outcomes;
  std::vector<char> done;  ///< per job: outcome recorded (for snapshots)
  std::vector<ScenarioBaseline> per_pair;
  std::size_t sessions_done = 0;
  std::size_t units_done = 0;
  std::size_t units_total = 0;  ///< fixed by the prepare unit
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t snapshots = 0;
  /// Write-ahead journal (out/<id>/journal.wal); null when the spec has no
  /// canonical form (custom builders), and closed (null) once the campaign
  /// is terminal. Same contract as the audit journal:
  /// thread-safe, inert on IO failure.
  std::unique_ptr<CampaignWalWriter> wal;
  /// Journaled completion records carried from reattach() to prepare_unit,
  /// which replays them through the result cache. Empty for fresh campaigns.
  std::vector<WalSessionRecord> wal_replay;
  bool resumed = false;      ///< re-registered by reattach(), not submit()
  std::size_t replayed = 0;  ///< sessions restored from journal + cache
  /// For terminal campaigns re-registered by reattach(): the session count
  /// recovered from the journal (jobs is never re-expanded for them).
  std::size_t sessions_total_hint = 0;
  /// Audit journal (out/<id>/events.jsonl); null when disabled and once the
  /// campaign is terminal. Thread-safe and inert on IO failure, so units
  /// record into it without ceremony.
  std::unique_ptr<EventJournal> journal;
  /// The campaign.run span's context (left invalid only for campaigns
  /// reattach() re-registers as already complete, which never run again):
  /// session/queue-wait spans parent on it, and finalize() records it
  /// closed over [submit_us, finalize] with trace_parent (the submitter's
  /// span, e.g. the endpoint's SUBMIT request span) as its parent.
  TraceContext trace;
  std::uint64_t trace_parent = 0;
  std::uint64_t submit_us = 0;
};

SessionService::SessionService(ServiceConfig config)
    : config_(std::move(config)),
      baselines_(config_.baseline_cache_entries),
      intake_(intake_slots(config_)) {
  EMUTILE_CHECK(!config_.root.empty(), "service needs a root directory");
  EMUTILE_CHECK(config_.num_threads >= 1, "service needs at least 1 thread");
  std::filesystem::create_directories(config_.root / "spool");
  std::filesystem::create_directories(config_.root / "out");
  if (config_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(config_.root / "cache");
    cache_->set_max_bytes(config_.cache_max_bytes);
  }
  scheduler_ = std::make_unique<JobScheduler>(config_.num_threads);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SessionService::~SessionService() {
  // Stop the dispatcher first: pop_wait drains the intake ring before
  // giving up, so every admitted campaign reaches the scheduler (and is
  // then cancelled below) — nothing submitted is silently dropped.
  intake_stop_.store(true);
  intake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<Campaign>& c : campaigns_) {
      if (c->state == CampaignState::kQueued ||
          c->state == CampaignState::kRunning) {
        c->cancel_flag.store(true);
        scheduler_->cancel(c->stream);
      }
    }
  }
  // Drain before destroying: a prepare unit that started before the cancel
  // above still submits its session units through scheduler_, which
  // unique_ptr::reset() nulls before the destructor's own drain runs.
  scheduler_->wait_all();  // every unit runs, which finalizes every campaign
  scheduler_.reset();
}

std::string SessionService::submit(const CampaignSpec& spec, int priority,
                                   const std::string& name_hint,
                                   TraceContext trace,
                                   std::uint64_t deadline_ms) {
  MetricsRegistry& reg = MetricsRegistry::global();
  // A draining daemon admits nothing: the coordinator reads "draining" off
  // the busy error (and off STATUS) and routes the work elsewhere.
  if (draining_.load()) {
    reg.counter("service.sheds_draining").add();
    throw ServiceBusyError("draining: instance is handing off, resubmit to "
                           "another instance");
  }
  // QoS admission, cheapest checks first. Quota: a single campaign may not
  // carry more sessions than the configured per-campaign budget.
  const std::size_t sessions = spec.num_sessions();
  if (config_.session_quota > 0 && sessions > config_.session_quota) {
    reg.counter("service.sheds_quota").add();
    throw ServiceBusyError(
        "campaign exceeds session quota (" + std::to_string(sessions) +
        " sessions, quota " + std::to_string(config_.session_quota) + ")");
  }
  // Deadline feasibility: once the session-latency distribution has enough
  // samples to trust, estimate this campaign's completion as (work already
  // queued + its own sessions) serialized over the worker pool at the
  // observed p99 per session. An infeasible deadline is shed *now*, before
  // the daemon takes on work it already knows it will miss.
  const std::uint64_t effective_deadline_ms =
      deadline_ms > 0 ? deadline_ms : config_.deadline_default_ms;
  if (effective_deadline_ms > 0) {
    const MetricHistogram& wall = reg.histogram("session.wall_us");
    if (wall.count() >= 20) {
      const std::uint64_t p99_us = wall.quantile(0.99);
      const std::int64_t depth = reg.gauge("scheduler.queue_depth").value();
      const std::uint64_t queued_units =
          depth > 0 ? static_cast<std::uint64_t>(depth) : 0;
      const std::uint64_t estimated_us =
          (queued_units + sessions) * p99_us / config_.num_threads;
      if (estimated_us > effective_deadline_ms * 1000) {
        reg.counter("service.sheds_overdeadline").add();
        throw ServiceOverdeadlineError(
            "deadline " + std::to_string(effective_deadline_ms) +
            " ms infeasible: ~" + std::to_string(estimated_us / 1000) +
            " ms estimated for " + std::to_string(sessions) +
            " sessions behind " + std::to_string(queued_units) +
            " queued units at p99 " + std::to_string(p99_us / 1000) +
            " ms/session");
      }
    }
  }

  std::string canonical;
  std::string hash8 = "custom";
  try {
    canonical = serialize_campaign_spec(spec);
    hash8 = spec_content_hash_hex(spec).substr(0, 8);
  } catch (const CheckError&) {
    // Custom-builder specs have no textual form; they still run, they just
    // are not content-addressed.
  }

  // Pick an id whose output directory is fresh: the sequence counter
  // restarts with the process, and reusing a directory surviving from an
  // earlier daemon run would mix its stale snapshots/report with the new
  // campaign's. The exists() probes are disk IO, so only the sequence bump
  // happens under the service mutex.
  std::string id;
  std::filesystem::path out_dir;
  for (;;) {
    std::size_t seq;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seq = next_seq_++;
    }
    id = sanitize_id(name_hint) + "-" + hash8 + "-" + std::to_string(seq);
    out_dir = config_.root / "out" / id;
    if (!std::filesystem::exists(out_dir)) break;
  }

  Campaign* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Load admission under the same lock that registers the campaign —
    // check-then-act with the lock dropped in between would let concurrent
    // submits overshoot the bound it exists to enforce. The tally is O(1):
    // set_state_locked keeps the queued/running counters truthful.
    if (config_.max_pending > 0) {
      const std::size_t pending = queued_campaigns_ + running_campaigns_;
      if (pending >= config_.max_pending) {
        reg.counter("service.sheds_busy").add();
        throw ServiceBusyError("campaign queue full (" +
                               std::to_string(pending) + " pending, limit " +
                               std::to_string(config_.max_pending) + ")");
      }
    }
    auto owned = std::make_unique<Campaign>();
    c = owned.get();
    c->id = id;
    c->out_dir = out_dir;
    c->spec = spec;
    c->canonical = std::move(canonical);
    c->priority = priority;
    c->stream = scheduler_->open_stream(priority);
    // Adopt the submitter's trace (or root a fresh one); child spans parent
    // on the campaign.run context minted here.
    c->trace = Tracer::global().child_context(trace);
    c->trace_parent = trace.valid() ? trace.span_id : 0;
    c->submit_us = journal_now_us();
    ++queued_campaigns_;  // constructed kQueued
    by_id_.emplace(c->id, c);
    campaigns_.push_back(std::move(owned));
  }
  reg.counter("service.campaigns_submitted").add();
  reg.gauge("service.campaigns_active").add();
  // Hand off to the dispatcher: spec persistence and scheduling (disk IO)
  // happen off the submit path. A full ring blocks bounded-ly — it cannot
  // happen under a max_pending bound, which intake_slots() sizes the ring
  // to cover. push_wait only refuses when the service is already stopping,
  // in which case the shutdown path cancels + finalizes the registered
  // campaign like any other queued one.
  if (!intake_.push_wait(c, intake_stop_)) {
    std::lock_guard<std::mutex> lock(mutex_);
    c->cancel_flag.store(true);
  }
  reg.gauge("service.intake_depth")
      .set(static_cast<std::int64_t>(intake_.size_approx()));
  return c->id;
}

void SessionService::dispatch_loop() {
  while (std::optional<Campaign*> c = intake_.pop_wait(intake_stop_)) {
    MetricsRegistry::global()
        .gauge("service.intake_depth")
        .set(static_cast<std::int64_t>(intake_.size_approx()));
    dispatch_campaign(**c);
  }
}

void SessionService::dispatch_campaign(Campaign& c) {
  const LogCampaignScope log_scope(c.id);
  try {
    std::filesystem::create_directories(c.out_dir);
    if (!c.canonical.empty()) {
      write_file_atomic(c.out_dir / "spec.txt", c.canonical);
      // spec.txt is on disk before the WAL header that content-addresses
      // it, so a journal never outlives the spec it validates against. A
      // resumed campaign appends to its surviving journal; re-writing the
      // header would be a duplicate the parser has no use for.
      c.wal = std::make_unique<CampaignWalWriter>(c.out_dir / "journal.wal");
      if (!c.resumed)
        c.wal->begin(c.id, format_u64_hex(fnv1a64(c.canonical)), c.priority);
    }
    c.canonical.clear();
    c.canonical.shrink_to_fit();
    if (config_.enable_journal) {
      c.journal = std::make_unique<EventJournal>(
          c.out_dir / "events.jsonl", c.id, format_u64_hex(c.trace.trace_id));
      if (c.resumed)
        c.journal->record("reattach",
                          {{"journaled", c.wal_replay.size()},
                           {"priority", c.priority}});
      else
        c.journal->record("submit", {{"priority", c.priority},
                                     {"designs", c.spec.designs.size()},
                                     {"tilings", c.spec.tilings.size()}});
    }
    schedule(c);
  } catch (const std::exception& e) {
    // Nothing reached the scheduler (a throwing JobScheduler::submit
    // withdraws its unit). Mark the campaign failed rather than erase it: a
    // concurrent list() may already have handed its id to a waiter whose
    // wait predicate holds a pointer to this Campaign, so erasing would
    // free it out from under them. kFailed is terminal, so waiters and
    // drain() proceed normally.
    MetricsRegistry::global().gauge("service.campaigns_active").sub();
    MetricsRegistry::global().counter("service.campaigns_failed").add();
    if (c.journal) c.journal->record("finalize", {{"state", "failed"}});
    // No unit will ever write to them: a failed campaign holds no fds.
    c.wal.reset();
    c.journal.reset();
    EMUTILE_WARN("campaign " << c.id
                             << " could not be started: " << e.what());
    std::lock_guard<std::mutex> lock(mutex_);
    set_state_locked(c, CampaignState::kFailed);
    c.error = std::string("campaign could not be started: ") + e.what();
    state_changed_.notify_all();
  }
}

void SessionService::set_state_locked(Campaign& c, CampaignState next) {
  if (c.state == next) return;
  if (c.state == CampaignState::kQueued)
    --queued_campaigns_;
  else if (c.state == CampaignState::kRunning)
    --running_campaigns_;
  if (next == CampaignState::kQueued)
    ++queued_campaigns_;
  else if (next == CampaignState::kRunning)
    ++running_campaigns_;
  c.state = next;
  // Called under mutex_ so that set_terminal_listener(nullptr) is a
  // synchronous detach: no call can still be running once it returns.
  if (terminal(next) && terminal_listener_) terminal_listener_(c.id);
}

void SessionService::set_terminal_listener(
    std::function<void(const std::string&)> listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  terminal_listener_ = std::move(listener);
}

SessionService::Campaign* SessionService::find_locked(
    const std::string& id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::string SessionService::submit_text(const std::string& text, int priority,
                                        const std::string& name_hint,
                                        TraceContext trace,
                                        std::uint64_t deadline_ms) {
  // Shed-before-parse: draining and a full campaign queue are O(1) checks,
  // and under a submit storm most requests die on them — don't spend a spec
  // parse on a request that was never going to be admitted. The
  // registration path re-checks, so these are purely fast paths.
  if (draining_.load()) {
    MetricsRegistry::global().counter("service.sheds_draining").add();
    throw ServiceBusyError("draining: instance is handing off, resubmit to "
                           "another instance");
  }
  if (config_.max_pending > 0) {
    std::size_t pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending = queued_campaigns_ + running_campaigns_;
    }
    if (pending >= config_.max_pending) {
      MetricsRegistry::global().counter("service.sheds_busy").add();
      throw ServiceBusyError("campaign queue full (" +
                             std::to_string(pending) + " pending, limit " +
                             std::to_string(config_.max_pending) + ")");
    }
  }
  return submit(parse_campaign_spec(text), priority, name_hint, trace,
                deadline_ms);
}

std::size_t SessionService::poll_spool() {
  const std::filesystem::path spool = config_.root / "spool";
  std::vector<std::filesystem::path> specs;
  for (const auto& entry : std::filesystem::directory_iterator(spool)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spec")
      specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());  // stable intake order

  std::size_t accepted = 0;
  for (const std::filesystem::path& path : specs) {
    try {
      const std::string text = read_file(path);
      const CampaignSpec spec = parse_campaign_spec(text);
      // A spooled spec may carry its submitter's trace context as a
      // `# traceparent=` comment (see prepend_traceparent).
      TraceContext trace{};
      if (const std::string tp = extract_traceparent(text); !tp.empty())
        if (const auto ctx = parse_traceparent(tp)) trace = *ctx;
      submit(spec, 0, path.stem().string(), trace);
      move_into(path, spool / "archive");
      ++accepted;
    } catch (const ServiceBusyError&) {
      // Queue full, not a bad spec: leave it (and everything queued behind
      // it — same full queue) in the spool for the next poll. Busy means
      // "try again later", never "reject".
      break;
    } catch (const std::exception& e) {
      EMUTILE_WARN("spool file " << path << " rejected: " << e.what());
      const std::filesystem::path rejected = spool / "rejected";
      std::filesystem::create_directories(rejected);
      write_file_atomic(rejected / (path.stem().string() + ".error"),
                        std::string(e.what()) + "\n");
      move_into(path, rejected);
    }
  }
  return accepted;
}

void SessionService::schedule(Campaign& c) {
  if (c.journal) c.journal->record("schedule");
  scheduler_->submit(c.stream,
                     [this, &c](bool cancelled) { prepare_unit(c, cancelled); });
}

void SessionService::prepare_unit(Campaign& c, bool cancelled) {
  const LogCampaignScope log_scope(c.id);
  bool do_finalize = false;
  try {
    std::vector<CampaignJob> jobs = c.spec.expand();
    const bool cancel_now = cancelled || c.cancel_flag.load();

    // Baseline pairs are round-robin partitioned across shards exactly as
    // run_campaign does, so a service-run shard's report stays byte-identical
    // to a direct run_campaign of the same spec and a fleet of shards
    // measures each pair once; unassigned pairs stay unmeasured.
    const auto pair_assigned = [&c](std::size_t u) {
      return c.spec.shard_count == 1 ||
             u % c.spec.shard_count == c.spec.shard_index;
    };
    const std::size_t all_pairs =
        c.spec.measure_baselines
            ? c.spec.designs.size() * c.spec.tilings.size()
            : 0;

    // Build only the goldens this shard's jobs and assigned baseline pairs
    // touch, mirroring run_campaign's design_needed filter.
    std::vector<char> design_needed(c.spec.designs.size(),
                                    c.spec.shard_count == 1 ? 1 : 0);
    if (c.spec.shard_count > 1) {
      for (const CampaignJob& job : jobs) design_needed[job.design_index] = 1;
      for (std::size_t u = 0; u < all_pairs; ++u)
        if (pair_assigned(u)) design_needed[u / c.spec.tilings.size()] = 1;
    }

    std::vector<Netlist> goldens(c.spec.designs.size());
    std::vector<std::string> golden_errors(c.spec.designs.size());
    if (!cancel_now) {
      for (std::size_t i = 0; i < c.spec.designs.size(); ++i) {
        if (!design_needed[i]) continue;
        try {
          goldens[i] = build_campaign_golden(c.spec, i);
        } catch (const std::exception& e) {
          golden_errors[i] = e.what();
        }
      }
    }

    // Journal replay: sessions the write-ahead journal proves finished
    // before the crash are restored from the result cache instead of
    // re-executed — this is the whole payoff of the journal. A record whose
    // recomputed key disagrees (journal from a different spec) or whose
    // cache entry vanished is simply not replayed; the session re-runs
    // deterministically. Cache IO happens here, outside the service mutex.
    std::vector<std::optional<SessionOutcome>> replay(jobs.size());
    if (!c.wal_replay.empty() && cache_ != nullptr && !cancel_now) {
      for (const WalSessionRecord& rec : c.wal_replay) {
        if (rec.index >= jobs.size() || !rec.has_key) continue;
        if (session_cache_key(c.spec, jobs[rec.index]) != rec.key) continue;
        try {
          if (std::optional<CachedSession> hit = cache_->load(rec.key))
            replay[rec.index] = from_cached(*hit);
        } catch (const std::exception& e) {
          EMUTILE_WARN("campaign " << c.id << ": replay load failed for "
                                   << "session " << rec.index << ": "
                                   << e.what());
        }
      }
    }
    c.wal_replay.clear();
    c.wal_replay.shrink_to_fit();

    std::size_t baseline_pairs = 0;
    std::size_t baseline_units = 0;
    std::size_t replay_count = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      set_state_locked(c, CampaignState::kRunning);
      c.jobs = std::move(jobs);
      c.goldens = std::move(goldens);
      c.golden_errors = std::move(golden_errors);
      c.outcomes.resize(c.jobs.size());
      c.done.assign(c.jobs.size(), 0);
      for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        if (!replay[i].has_value()) continue;
        c.outcomes[i] = std::move(*replay[i]);
        c.done[i] = 1;
        ++c.sessions_done;
        ++c.cache_hits;
        ++c.replayed;
        ++replay_count;
      }
      if (c.spec.measure_baselines && !cancel_now) {
        baseline_pairs = all_pairs;
        c.per_pair.resize(baseline_pairs);
        for (std::size_t u = 0; u < baseline_pairs; ++u)
          if (pair_assigned(u)) ++baseline_units;
      }
      c.units_total = 1 + (c.jobs.size() - replay_count) + baseline_units;
      if (cancel_now) {
        for (std::size_t i = 0; i < c.jobs.size(); ++i) {
          c.outcomes[i].report.cancelled = true;
          c.done[i] = 1;
        }
        c.sessions_done = c.jobs.size();
        c.units_total = 1;
        do_finalize = unit_finished_locked(c);
      }
    }

    if (!cancel_now) {
      if (replay_count > 0) {
        MetricsRegistry::global()
            .counter("service.sessions_replayed")
            .add(replay_count);
        if (c.journal)
          c.journal->record("replay", {{"sessions", replay_count}});
      }
      // Only the slots the journal could not replay reach the scheduler.
      std::vector<std::size_t> to_run;
      to_run.reserve(c.jobs.size() - replay_count);
      for (std::size_t i = 0; i < c.jobs.size(); ++i)
        if (!c.done[i]) to_run.push_back(i);
      // If a submit throws partway (allocation failure), account for every
      // unit that never reached the scheduler so the finished/total ledger
      // still balances and finalize() fires exactly once.
      std::size_t submitted = 0;
      try {
        for (const std::size_t i : to_run) {
          // Stamped at enqueue so the unit can reconstruct its queue-wait
          // span without the scheduler knowing about tracing.
          const std::uint64_t enqueued_us = journal_now_us();
          scheduler_->submit(
              c.stream, [this, &c, i, enqueued_us](bool unit_cancelled) {
                session_unit(c, i, unit_cancelled, enqueued_us);
              });
          ++submitted;
        }
        for (std::size_t u = 0; u < baseline_pairs; ++u) {
          if (!pair_assigned(u)) continue;
          scheduler_->submit(c.stream, [this, &c, u](bool unit_cancelled) {
            baseline_unit(c, u, unit_cancelled);
          });
          ++submitted;
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex_);
        c.units_total = 1 + submitted;
        for (std::size_t k = submitted; k < to_run.size(); ++k) {
          c.outcomes[to_run[k]].error =
              std::string("session could not be scheduled: ") + e.what();
          c.done[to_run[k]] = 1;
          ++c.sessions_done;
        }
        // Unscheduled baseline pairs simply stay unmeasured.
      }
      std::lock_guard<std::mutex> lock(mutex_);
      do_finalize = unit_finished_locked(c);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    set_state_locked(c, CampaignState::kFailed);
    c.error = e.what();
    c.units_total = 1;
    do_finalize = unit_finished_locked(c);
  }
  if (do_finalize) finalize(c);
}

/// What a snapshot needs, captured under the lock so the report build and
/// file write can happen outside it.
struct SessionService::SnapshotData {
  std::size_t sequence = 0;  ///< 1-based snapshot number
  std::vector<CampaignJob> jobs_done;
  std::vector<SessionOutcome> outcomes_done;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

void SessionService::session_unit(Campaign& c, std::size_t job_slot,
                                  bool cancelled,
                                  std::uint64_t enqueued_us) {
  const LogCampaignScope log_scope(c.id);
  const CampaignJob& job = c.jobs[job_slot];
  SessionOutcome outcome;
  CacheLookup lookup = CacheLookup::kNotConsulted;
  const bool cancel_now = cancelled || c.cancel_flag.load();
  const std::uint64_t started_us = journal_now_us();
  if (!cancel_now) {
    // The time between enqueue and this unit actually starting, as a span
    // child of campaign.run — reconstructed from the enqueue stamp, so the
    // scheduler itself stays tracing-free.
    Tracer::global().record_span(
        "scheduler.queue_wait", Tracer::global().child_context(c.trace),
        c.trace.span_id, enqueued_us,
        started_us >= enqueued_us ? started_us - enqueued_us : 0);
  }
  if (!cancel_now && c.journal)
    c.journal->record("session-start", {{"session", job_slot},
                                        {"scenario", job.scenario},
                                        {"replica", job.replica}});
  if (cancel_now) {
    outcome.report.cancelled = true;
  } else if (!c.golden_errors[job.design_index].empty()) {
    outcome.error = "design '" + c.spec.designs[job.design_index].name +
                    "' failed to build: " + c.golden_errors[job.design_index];
  } else {
    // Cross-thread handoff: this worker parents session.run explicitly on
    // the campaign context. Engine-level spans (cache lookup, phases,
    // localizer rounds) nest under it through the thread-local stack.
    const ScopedSpan session_span(Tracer::global(), "session.run", c.trace);
    outcome = run_campaign_session(
        c.spec, job, c.goldens[job.design_index],
        [&c] { return c.cancel_flag.load(); }, cache_.get(), &lookup,
        &baselines_);
    if (config_.slow_session_multiple > 0) {
      // Slow-span watchdog: compare against the running p99 once the
      // distribution has enough samples to mean something.
      const std::uint64_t session_us = journal_now_us() - started_us;
      MetricHistogram& wall =
          MetricsRegistry::global().histogram("session.wall_us");
      const std::uint64_t p99 = wall.quantile(0.99);
      if (wall.count() >= 20 && p99 > 0 &&
          static_cast<double>(session_us) >
              config_.slow_session_multiple * static_cast<double>(p99)) {
        MetricsRegistry::global().counter("service.slow_sessions").add();
        EMUTILE_WARN("slow session: span campaign.run > session.run (campaign "
                     << c.id << ", session " << job_slot << ") took "
                     << session_us / 1000 << " ms, more than "
                     << config_.slow_session_multiple << "x the running p99 "
                     << p99 / 1000 << " ms");
      }
    }
  }
  if (c.wal && !outcome.report.cancelled && outcome.error.empty()) {
    // Journal the completion strictly after run_campaign_session stored the
    // result (a crash in the gap loses only this session's work, never the
    // journal's truthfulness). Sessions that only make sense uncached — no
    // cache, custom builder — journal "-": replay re-runs them. The fault
    // points let the durability suite SIGKILL on either side of the append
    // and prove both orders recover.
    const bool cacheable =
        cache_ != nullptr && !c.spec.designs[job.design_index].builder;
    EMUTILE_FAULT_POINT("session.pre-wal");
    c.wal->session(job_slot,
                   cacheable ? session_cache_key(c.spec, job) : 0, cacheable);
    EMUTILE_FAULT_POINT("session.post-wal");
  }
  if (c.journal) {
    if (lookup == CacheLookup::kHit)
      c.journal->record("cache-hit", {{"session", job_slot}});
    c.journal->record("session-done",
                      {{"session", job_slot},
                       {"cached", lookup == CacheLookup::kHit ? 1 : 0}});
  }
  MetricsRegistry::global().counter("service.sessions_completed").add();

  bool do_finalize = false;
  bool do_snapshot = false;
  SnapshotData snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    c.outcomes[job_slot] = std::move(outcome);
    c.done[job_slot] = 1;
    ++c.sessions_done;
    if (lookup == CacheLookup::kHit) ++c.cache_hits;
    if (lookup == CacheLookup::kMiss) ++c.cache_misses;
    // Stream a snapshot every N completed sessions; the final report
    // supersedes the would-be last snapshot.
    if (config_.snapshot_every > 0 &&
        c.sessions_done % config_.snapshot_every == 0 &&
        c.sessions_done < c.jobs.size()) {
      snapshot = capture_snapshot_locked(c);
      do_snapshot = true;
    }
    do_finalize = unit_finished_locked(c);
  }
  // Report building and disk IO happen off the service mutex so one
  // campaign's output never stalls the others' workers or API calls.
  if (do_snapshot) write_snapshot(c, snapshot);
  if (do_finalize) finalize(c);
}

void SessionService::baseline_unit(Campaign& c, std::size_t pair_index,
                                   bool cancelled) {
  ScenarioBaseline baseline;
  const std::size_t design_index = pair_index / c.spec.tilings.size();
  if (!cancelled && !c.cancel_flag.load() &&
      c.golden_errors[design_index].empty()) {
    baseline =
        measure_baseline_pair(c.spec, pair_index, c.goldens[design_index]);
  }
  bool do_finalize = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    c.per_pair[pair_index] = baseline;
    do_finalize = unit_finished_locked(c);
  }
  if (do_finalize) finalize(c);
}

bool SessionService::unit_finished_locked(Campaign& c) {
  ++c.units_done;
  return c.units_done == c.units_total;
}

void SessionService::finalize(Campaign& c) {
  // Runs on the campaign's last unit, outside the service mutex: every
  // other unit is done, so jobs/outcomes/per_pair have no writers left.
  const LogCampaignScope log_scope(c.id);
  CampaignState state = c.state;
  std::string error = c.error;
  if (state != CampaignState::kFailed) {
    try {
      std::vector<ScenarioBaseline> baselines;
      if (c.spec.measure_baselines && !c.per_pair.empty())
        baselines = fan_out_baselines(c.spec, c.per_pair);
      CampaignReport report =
          build_report(c.spec, c.jobs, c.outcomes, baselines);
      // config_, not scheduler_: during ~SessionService the scheduler
      // unique_ptr is already null while its drain runs this very unit.
      report.num_threads = config_.num_threads;
      report.cache_hits = c.cache_hits;
      report.cache_misses = c.cache_misses;
      // A crash from here until the journal's `complete` record leaves the
      // campaign resumable: every session is journaled + cached, so a
      // reattach replays them all and rewrites these same bytes.
      EMUTILE_FAULT_POINT("finalize.pre-report");
      write_file_atomic(c.out_dir / "report.json", report.to_json());
      write_file_atomic(c.out_dir / "report.csv", report.to_csv());
      // The mergeable form: what a coordinator fetches over SHARDREPORT to
      // recombine this shard with the rest of its fleet.
      write_file_atomic(c.out_dir / "report.shard",
                        serialize_campaign_report(report));
      state = c.cancel_flag.load() ? CampaignState::kCancelled
                                   : CampaignState::kFinished;
    } catch (const std::exception& e) {
      state = CampaignState::kFailed;
      error = e.what();
    }
  }
  if (state == CampaignState::kFailed) {
    // Best-effort like the trace export below: a throw here would escape
    // the scheduler unit and terminate the daemon. STATUS still carries the
    // error.
    try {
      write_file_atomic(c.out_dir / "error.txt", error + "\n");
    } catch (const std::exception& e) {
      EMUTILE_WARN("campaign " << c.id << ": error.txt write failed: "
                               << e.what());
    }
  }
  if (c.wal) {
    // Written after every report artifact: a journal bearing `complete` is
    // a promise that the reports it describes are on disk.
    EMUTILE_FAULT_POINT("finalize.pre-complete");
    c.wal->complete(to_string(state));
    // The last record: closing it here keeps a terminal campaign from
    // holding an fd for the life of the daemon.
    c.wal.reset();
  }
  {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.gauge("service.campaigns_active").sub();
    if (state == CampaignState::kFinished)
      reg.counter("service.campaigns_finished").add();
    else if (state == CampaignState::kCancelled)
      reg.counter("service.campaigns_cancelled").add();
    else
      reg.counter("service.campaigns_failed").add();
  }
  if (c.journal) {
    c.journal->record("finalize", {{"state", to_string(state)},
                                   {"sessions_done", c.sessions_done},
                                   {"cache_hits", c.cache_hits}});
    c.journal.reset();  // likewise the last record
  }
  // Close the campaign.run span over [submit, now] and export the
  // campaign's closed spans as Chrome trace-event JSON. A sidecar like
  // the journal: failures are swallowed, and the deterministic report
  // artifacts above never depend on it.
  Tracer& tracer = Tracer::global();
  const std::uint64_t now = journal_now_us();
  tracer.record_span("campaign.run", c.trace, c.trace_parent, c.submit_us,
                     now >= c.submit_us ? now - c.submit_us : 0);
  try {
    write_file_atomic(
        c.out_dir / "trace.json",
        trace_events_json(tracer.collect_trace(c.trace.trace_id, false)));
  } catch (const std::exception& e) {
    EMUTILE_WARN("campaign " << c.id << ": trace export failed: "
                             << e.what());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  set_state_locked(c, state);
  c.error = error;
  // Golden netlists can be large; the campaign is done with them.
  c.goldens.clear();
  state_changed_.notify_all();
}

SessionService::SnapshotData SessionService::capture_snapshot_locked(
    Campaign& c) {
  // Copy exactly the sessions recorded so far. The subset is
  // scheduling-dependent (snapshots are a progress stream, not the
  // deterministic artifact), but each snapshot covers a superset of the
  // previous one's sessions. The sequence number is assigned here, under
  // the lock, so concurrent snapshot writers never collide.
  SnapshotData data;
  data.sequence = ++c.snapshots;
  data.cache_hits = c.cache_hits;
  data.cache_misses = c.cache_misses;
  data.jobs_done.reserve(c.sessions_done);
  data.outcomes_done.reserve(c.sessions_done);
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    if (!c.done[i]) continue;
    data.jobs_done.push_back(c.jobs[i]);
    data.outcomes_done.push_back(c.outcomes[i]);
  }
  return data;
}

void SessionService::write_snapshot(const Campaign& c,
                                    const SnapshotData& data) {
  try {
    CampaignReport snapshot =
        build_report(c.spec, data.jobs_done, data.outcomes_done, {});
    snapshot.num_threads = config_.num_threads;
    snapshot.cache_hits = data.cache_hits;
    snapshot.cache_misses = data.cache_misses;
    char name[32];
    std::snprintf(name, sizeof name, "snapshot-%03zu.json", data.sequence);
    write_file_atomic(c.out_dir / name, snapshot.to_json());
  } catch (const std::exception& e) {
    EMUTILE_WARN("campaign " << c.id << ": snapshot failed: " << e.what());
  }
}

CampaignStatus SessionService::status_locked(const Campaign& c) const {
  CampaignStatus s;
  s.id = c.id;
  s.state = c.state;
  s.priority = c.priority;
  s.sessions_done = c.sessions_done;
  s.sessions_total = c.jobs.empty() ? c.sessions_total_hint : c.jobs.size();
  s.cache_hits = c.cache_hits;
  s.cache_misses = c.cache_misses;
  s.snapshots = c.snapshots;
  s.replayed = c.replayed;
  s.error = c.error;
  s.out_dir = c.out_dir;
  return s;
}

std::optional<CampaignStatus> SessionService::status(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Campaign* c = find_locked(id)) return status_locked(*c);
  return std::nullopt;
}

std::vector<CampaignStatus> SessionService::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CampaignStatus> out;
  out.reserve(campaigns_.size());
  for (const std::unique_ptr<Campaign>& c : campaigns_)
    out.push_back(status_locked(*c));
  return out;
}

bool SessionService::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Campaign* c = find_locked(id);
  if (c == nullptr) return false;
  c->cancel_flag.store(true);
  // Terminal campaigns re-registered by reattach() never opened a stream.
  if (c->stream != 0) scheduler_->cancel(c->stream);
  return true;
}

void SessionService::wait(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Campaign* target = find_locked(id);
  EMUTILE_CHECK(target != nullptr, "unknown campaign id '" << id << "'");
  state_changed_.wait(lock, [&] { return terminal(target->state); });
}

bool SessionService::wait_for(const std::string& id,
                              std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  Campaign* target = find_locked(id);
  EMUTILE_CHECK(target != nullptr, "unknown campaign id '" << id << "'");
  return state_changed_.wait_for(lock, timeout,
                                 [&] { return terminal(target->state); });
}

std::uint64_t SessionService::uptime_seconds() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

std::size_t SessionService::queued_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_campaigns_;
}

std::size_t SessionService::running_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_campaigns_;
}

void SessionService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  state_changed_.wait(lock, [&] {
    for (const std::unique_ptr<Campaign>& c : campaigns_)
      if (!terminal(c->state)) return false;
    return true;
  });
}

void SessionService::begin_drain() {
  if (draining_.exchange(true)) return;
  MetricsRegistry::global().counter("service.drains_begun").add();
  EMUTILE_INFO("drain begun: no longer admitting campaigns ("
               << running_count() << " running, " << queued_count()
               << " queued will finish)");
}

namespace {

/// The WAL's terminal-state string back to the enum; nullopt for anything
/// unrecognized (treated as unvalidatable, not as corruption — the line's
/// checksum already passed).
std::optional<CampaignState> state_from_string(const std::string& s) {
  if (s == "finished") return CampaignState::kFinished;
  if (s == "cancelled") return CampaignState::kCancelled;
  if (s == "failed") return CampaignState::kFailed;
  return std::nullopt;
}

}  // namespace

ReattachStats SessionService::reattach() {
  ReattachStats stats;
  std::vector<std::filesystem::path> dirs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.root / "out", ec)) {
    if (!entry.is_directory()) continue;
    // .stale names are previous reattaches' archives — never rescanned.
    if (entry.path().filename().string().find(".stale") != std::string::npos)
      continue;
    dirs.push_back(entry.path());
  }
  std::sort(dirs.begin(), dirs.end());  // deterministic registration order
  for (const std::filesystem::path& dir : dirs) {
    try {
      reattach_dir(dir, stats);
    } catch (const std::exception& e) {
      EMUTILE_WARN("reattach: " << dir << " skipped: " << e.what());
    }
  }
  if (stats.resumed + stats.completed + stats.archived > 0) {
    EMUTILE_INFO("reattach: resumed " << stats.resumed << ", re-registered "
                 << stats.completed << " completed, archived "
                 << stats.archived << " (resubmitted " << stats.resubmitted
                 << ")");
  }
  return stats;
}

void SessionService::reattach_dir(const std::filesystem::path& dir,
                                  ReattachStats& stats) {
  const std::string id = dir.filename().string();
  MetricsRegistry& reg = MetricsRegistry::global();

  // Gather the evidence: journal, spec, and their agreement. spec.txt is
  // the canonical serialization, so its raw bytes hash to the content hash
  // the WAL header recorded at submit time.
  std::string wal_error;
  std::optional<CampaignWal> wal =
      load_campaign_wal(dir / "journal.wal", &wal_error);
  std::string spec_text;
  std::optional<CampaignSpec> spec;
  try {
    spec_text = read_file(dir / "spec.txt");
    spec = parse_campaign_spec(spec_text);
  } catch (const std::exception&) {
    spec.reset();
  }
  const bool consistent = wal.has_value() && spec.has_value() &&
                          wal->campaign_id == id &&
                          wal->spec_hash == format_u64_hex(fnv1a64(spec_text));

  if (consistent && wal->complete) {
    // `complete` promises the report artifacts were on disk when it was
    // written. Verify anyway: if they vanished, the campaign is resumable
    // (every session is journaled), so fall through to the resume path and
    // let it rewrite them from cache instead of trusting a stale promise.
    const std::optional<CampaignState> state =
        state_from_string(wal->final_state);
    const bool reports_present =
        std::filesystem::exists(dir / "report.json") &&
        std::filesystem::exists(dir / "report.shard");
    if (state.has_value() &&
        (*state == CampaignState::kFailed || reports_present)) {
      auto owned = std::make_unique<Campaign>();
      Campaign* c = owned.get();
      c->id = id;
      c->out_dir = dir;
      c->spec = *spec;
      c->priority = wal->priority;
      c->resumed = true;
      c->sessions_done = wal->sessions.size();
      c->sessions_total_hint = wal->sessions.size();
      if (*state == CampaignState::kFailed) {
        try {
          c->error = read_file(dir / "error.txt");
          while (!c->error.empty() && c->error.back() == '\n')
            c->error.pop_back();
        } catch (const std::exception&) {
          c->error = "failed (error.txt unreadable)";
        }
      }
      std::lock_guard<std::mutex> lock(mutex_);
      ++queued_campaigns_;  // constructed kQueued; the transition rebalances
      set_state_locked(*c, *state);
      by_id_.emplace(c->id, c);
      campaigns_.push_back(std::move(owned));
      ++stats.completed;
      return;
    }
  }

  if (consistent) {
    // Unfinished (or finished with its artifacts missing): re-register under
    // the same id and output dir and push it through the normal dispatch
    // path. prepare_unit replays the journaled sessions through the result
    // cache; only the remainder re-executes. WAIT/STATUS clients asking for
    // this id reconnect as if the daemon never died.
    Campaign* c = nullptr;
    {
      auto owned = std::make_unique<Campaign>();
      c = owned.get();
      c->id = id;
      c->out_dir = dir;
      c->spec = *spec;
      c->canonical = spec_text;
      c->priority = wal->priority;
      c->stream = scheduler_->open_stream(wal->priority);
      c->trace = Tracer::global().child_context({});
      c->submit_us = journal_now_us();
      c->resumed = true;
      c->wal_replay = std::move(wal->sessions);
      std::lock_guard<std::mutex> lock(mutex_);
      ++queued_campaigns_;
      by_id_.emplace(c->id, c);
      campaigns_.push_back(std::move(owned));
    }
    reg.counter("service.campaigns_reattached").add();
    reg.gauge("service.campaigns_active").add();
    if (!intake_.push_wait(c, intake_stop_)) {
      std::lock_guard<std::mutex> lock(mutex_);
      c->cancel_flag.store(true);
    }
    ++stats.resumed;
    return;
  }

  // Unvalidatable: no journal, a poisoned one, or journal/spec disagreement.
  // Archive the directory out of the way (PR 2's daemon silently shadowed
  // it forever) and, when the spec still parses, re-run it fresh — the
  // result cache makes any sessions that did complete nearly free.
  EMUTILE_WARN("reattach: archiving " << dir << " ("
               << (wal ? "journal/spec mismatch" : wal_error) << ")");
  std::filesystem::path dest = dir;
  dest += ".stale";
  for (int n = 1; std::filesystem::exists(dest); ++n) {
    dest = dir;
    dest += ".stale." + std::to_string(n);
  }
  std::filesystem::rename(dir, dest);
  reg.counter("service.reattach_archived").add();
  ++stats.archived;
  if (spec.has_value()) {
    try {
      submit(*spec, 0, id);
      ++stats.resubmitted;
    } catch (const std::exception& e) {
      EMUTILE_WARN("reattach: resubmit of archived " << id
                   << " failed: " << e.what());
    }
  }
}

AdaptiveRoundExecutor make_adaptive_executor(SessionService& service,
                                             int priority) {
  return [&service, priority](const CampaignSpec& spec, std::size_t round) {
    const std::string id = service.submit(
        spec, priority, "adaptive-r" + std::to_string(round));
    service.wait(id);
    const std::optional<CampaignStatus> status = service.status(id);
    EMUTILE_CHECK(status.has_value(),
                  "adaptive round " << round << ": campaign '" << id
                                    << "' vanished from the service");
    EMUTILE_CHECK(status->state == CampaignState::kFinished,
                  "adaptive round " << round << ": campaign '" << id
                                    << "' ended " << to_string(status->state)
                                    << (status->error.empty() ? "" : ": ")
                                    << status->error);
    return load_campaign_report_file(status->out_dir / "report.shard");
  };
}

}  // namespace emutile
