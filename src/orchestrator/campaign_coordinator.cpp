#include "orchestrator/campaign_coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <system_error>
#include <utility>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "obs/trace_io.hpp"
#include "service/service_client.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace emutile {

namespace {

using Clock = std::chrono::steady_clock;

/// Never steal fewer remaining sessions than this — splitting a nearly-
/// finished shard trades real cache warmth for negligible parallelism.
constexpr std::size_t kMinStealSessions = 2;

}  // namespace

const char* to_string(ShardState state) {
  switch (state) {
    case ShardState::kPending: return "pending";
    case ShardState::kRemote: return "remote";
    case ShardState::kLocal: return "local";
    case ShardState::kDone: return "done";
  }
  return "?";
}

/// One shard's worth of work and where it currently lives. Owned through a
/// unique_ptr so work stealing can append shards mid-run without moving the
/// ones already in flight.
struct CampaignCoordinator::ShardWork {
  CampaignSpec spec;
  std::string text;  ///< canonical wire form of `spec`
  ShardProgress progress;
  std::size_t job_begin = 0;  ///< absolute job range this shard covers
  std::size_t job_end = 0;
  /// One-shot placement preference (the steal target); consumed by the next
  /// dispatch. -1 means none.
  int preferred_instance = -1;
  std::size_t instance_index = 0;           ///< valid while kRemote
  Clock::time_point last_progress{};        ///< last observed forward motion
  /// The shard's parked WAIT (while kRemote): its socket turns readable when
  /// the remote campaign turns terminal. Closed on every way out of kRemote.
  PendingWait wait;
  CampaignReport report;                    ///< valid once kDone
};

/// Live view of one fleet member. The config is held by value: the fleet can
/// be reconfigured mid-run (apply_fleet), so pointers into fleet_.instances
/// would dangle.
struct CampaignCoordinator::InstanceState {
  FleetInstance config;
  bool healthy = true;
  /// Retired instances (dropped from a reloaded fleet config) take no new
  /// dispatches but their in-flight shards are still polled and collected.
  bool retired = false;
  /// Lazily-dialed persistent client. Reset whenever the instance is presumed
  /// dead, so a replacement daemon gets a fresh HELLO probe.
  std::unique_ptr<ServiceClient> client;
  /// Job ranges this instance has been asked to run — its caches plausibly
  /// hold these sessions, which is what cache-affinity placement scores.
  std::vector<std::pair<std::size_t, std::size_t>> history;
};

namespace {

/// How many of the shard's jobs this instance has plausibly cached.
/// History ranges may overlap after re-dispatches; the double counting only
/// sharpens the preference for the instance that saw the work most.
std::size_t affinity_overlap_impl(
    const std::vector<std::pair<std::size_t, std::size_t>>& history,
    std::size_t begin, std::size_t end) {
  std::size_t total = 0;
  for (const auto& [b, e] : history) {
    const std::size_t lo = std::max(b, begin);
    const std::size_t hi = std::min(e, end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

}  // namespace

CampaignCoordinator::CampaignCoordinator(FleetConfig fleet,
                                         CoordinatorOptions options)
    : fleet_(std::move(fleet)), options_(std::move(options)) {}

CampaignCoordinator::~CampaignCoordinator() = default;

ServiceClient& CampaignCoordinator::client_for(InstanceState& instance) {
  if (!instance.client) {
    instance.client = std::make_unique<ServiceClient>(
        instance.config.address, options_.request_timeout_ms);
    // One connection per instance across the whole supervision loop (when
    // the daemon advertises the `persist` cap) — fleet polling should not
    // pay a dial per tick, least of all on TCP. Falls back to one-shot
    // exchanges transparently on any persistent-channel error.
    instance.client->set_persistent(true);
  }
  return *instance.client;
}

bool CampaignCoordinator::dispatch(ShardWork& shard) {
  const std::string name_hint =
      "shard" + std::to_string(shard.progress.shard);
  const auto eligible = [&](std::size_t i) {
    return instances_[i].healthy && !instances_[i].retired;
  };

  // Candidate order: the steal target first (if any), then the instance
  // whose caches overlap this shard's job range the most, then round-robin
  // over everyone else. The first candidate that admits the SUBMIT wins.
  std::vector<std::size_t> order;
  order.reserve(instances_.size());
  const auto push_unique = [&](std::size_t i) {
    if (std::find(order.begin(), order.end(), i) == order.end())
      order.push_back(i);
  };
  if (shard.preferred_instance >= 0) {
    const auto preferred = static_cast<std::size_t>(shard.preferred_instance);
    if (preferred < instances_.size() && eligible(preferred))
      push_unique(preferred);
  }
  std::size_t best_overlap = 0;
  std::size_t best_index = instances_.size();
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (!eligible(i)) continue;
    const std::size_t overlap = affinity_overlap_impl(
        instances_[i].history, shard.job_begin, shard.job_end);
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best_index = i;
    }
  }
  if (best_index < instances_.size()) push_unique(best_index);
  for (std::size_t probe = 0; probe < instances_.size(); ++probe) {
    const std::size_t index = (rr_cursor_ + probe) % instances_.size();
    if (eligible(index)) push_unique(index);
  }

  for (const std::size_t index : order) {
    InstanceState& instance = instances_[index];
    // Each dispatch attempt gets its own synthesized span under the run
    // root; the context travels as the SUBMIT traceparent so the remote
    // campaign's spans hang off this exact attempt (re-dispatches stay
    // distinguishable in the stitched trace).
    const TraceContext dispatch_ctx =
        Tracer::global().child_context(run_root_);
    const std::string traceparent = format_traceparent(dispatch_ctx);
    const std::uint64_t dispatch_start_us = journal_now_us();
    try {
      ServiceClient& client = client_for(instance);
      shard.progress.campaign_id = client.submit(shard.text, options_.priority,
                                                 name_hint, traceparent);
      // Park a WAIT right away: its reply is what wakes the supervision loop
      // when the shard finishes. If it cannot be opened, the STATUS poll
      // still supervises the shard.
      try {
        shard.wait = client.start_wait(shard.progress.campaign_id);
      } catch (const ServiceError& e) {
        EMUTILE_WARN("shard " << shard.progress.shard << " on '"
                              << instance.config.name << "': no WAIT parked ("
                              << e.what() << ") — supervising by STATUS only");
      }
    } catch (const ServiceError& e) {
      switch (e.code()) {
        case ServiceErrorCode::kDraining:
          // A draining instance will never admit again — take it out of the
          // rotation (the reprobe loop readmits its replacement); its
          // in-flight shards are still collected.
          EMUTILE_WARN("fleet instance '" << instance.config.name
                                          << "' is draining — rotating out");
          instance.healthy = false;
          break;
        case ServiceErrorCode::kBusy:
          // A loaded instance stays healthy: if the whole fleet is busy the
          // shard stays pending until a queue frees up — that backpressure
          // is the point of the bounded SUBMIT queue.
          break;
        default:
          // io / protocol / overdeadline: presume the instance dead. Drop
          // the client so a replacement daemon gets a fresh HELLO.
          EMUTILE_WARN("fleet instance '" << instance.config.name
                                          << "' failed a dispatch: "
                                          << e.what());
          instance.healthy = false;
          instance.client.reset();
          break;
      }
      continue;
    } catch (const std::exception& e) {
      EMUTILE_WARN("fleet instance '" << instance.config.name
                                      << "' failed a dispatch: " << e.what());
      instance.healthy = false;
      instance.client.reset();
      continue;
    }
    Tracer::global().record_span("orchestrate.dispatch", dispatch_ctx,
                                 run_root_.span_id, dispatch_start_us,
                                 journal_now_us() - dispatch_start_us);
    const bool by_affinity =
        affinity_overlap_impl(instance.history, shard.job_begin,
                              shard.job_end) > 0;
    instance.history.emplace_back(shard.job_begin, shard.job_end);
    shard.preferred_instance = -1;
    shard.instance_index = index;
    shard.progress.instance = instance.config.name;
    shard.progress.state = ShardState::kRemote;
    shard.progress.sessions_done = 0;
    shard.last_progress = Clock::now();
    ++shard.progress.dispatches;
    if (shard.progress.dispatches > 1) {
      ++redispatches_;
      MetricsRegistry::global().counter("coordinator.redispatches").add();
    }
    if (by_affinity) {
      ++affinity_dispatches_;
      MetricsRegistry::global().counter("coordinator.affinity_dispatches")
          .add();
    }
    MetricsRegistry::global().counter("coordinator.dispatches").add();
    if (options_.journal)
      options_.journal->record(
          "dispatch", {{"shard", shard.progress.shard},
                       {"instance", instance.config.name},
                       {"attempt", shard.progress.dispatches},
                       {"affinity", by_affinity ? 1 : 0}});
    rr_cursor_ = (index + 1) % instances_.size();
    return true;
  }
  return false;
}

void CampaignCoordinator::give_back(ShardWork& shard, const std::string& why,
                                    bool instance_dead) {
  InstanceState& instance = instances_[shard.instance_index];
  EMUTILE_WARN("shard " << shard.progress.shard << " on '"
                        << instance.config.name << "': " << why
                        << " — re-dispatching");
  if (instance_dead) {
    instance.healthy = false;
    instance.client.reset();
  }
  shard.wait.close();
  shard.progress.state = ShardState::kPending;
  if (options_.journal)
    options_.journal->record("retry", {{"shard", shard.progress.shard},
                                       {"instance", instance.config.name},
                                       {"why", why}});
}

void CampaignCoordinator::collect(ShardWork& shard, CampaignReport report) {
  shard.wait.close();
  shard.report = std::move(report);
  shard.progress.state = ShardState::kDone;
  shard.progress.sessions_done = shard.progress.sessions_total;
  if (options_.journal)
    options_.journal->record(
        "collect",
        {{"shard", shard.progress.shard},
         {"instance", instances_[shard.instance_index].config.name}});
}

void CampaignCoordinator::on_wait_reply(ShardWork& shard) {
  std::string state;
  try {
    state = shard.wait.read_reply(options_.request_timeout_ms);
  } catch (const std::exception&) {
    // ERR (e.g. the daemon shutting down), EOF, or an IO error: the socket
    // is closed either way, and STATUS tells a dead instance from a live
    // one right now rather than on the next tick.
  }
  if (state == "finished") {
    // The WAIT itself proves the report is on disk: fetch it straight away.
    try {
      collect(shard, parse_campaign_report(
                         client_for(instances_[shard.instance_index])
                             .fetch_shard_report(shard.progress.campaign_id)));
    } catch (const std::exception& e) {
      give_back(shard, e.what(), /*instance_dead=*/true);
    }
  } else if (state == "cancelled" || state == "failed") {
    give_back(shard, "campaign ended " + state, /*instance_dead=*/false);
  } else {
    poll_shard(shard);
  }
}

void CampaignCoordinator::await_completions(Clock::time_point until) {
  std::vector<pollfd> fds;
  std::vector<ShardWork*> owners;
  for (const auto& shard : shards_) {
    if (shard->progress.state != ShardState::kRemote || !shard->wait.open())
      continue;
    fds.push_back({shard->wait.fd(), POLLIN, 0});
    owners.push_back(shard.get());
  }
  const auto timeout_ms = std::clamp<std::int64_t>(
      std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now())
          .count(),
      0, std::numeric_limits<int>::max());
  // The loop's only wait: with no WAIT parked this is a plain sleep to the
  // next tick. EINTR (a SIGHUP reload) just ends the wait early.
  if (::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms)) <= 0)
    return;
  // Every ready socket is read and closed now, never polled again — one
  // left readable would turn the loop into a busy spin.
  for (std::size_t i = 0; i < fds.size(); ++i)
    if (fds[i].revents != 0) on_wait_reply(*owners[i]);
}

void CampaignCoordinator::poll_shard(ShardWork& shard) {
  InstanceState& instance = instances_[shard.instance_index];
  // Evaluated lazily, *after* this poll has had its chance to refresh
  // last_progress — a tick that observes fresh progress (e.g. right after a
  // long in-process fallback blocked the loop) must never act on a stale
  // pre-poll timestamp and kill a healthy instance.
  const auto stalled = [&] {
    return options_.stall_deadline.count() > 0 &&
           Clock::now() - shard.last_progress > options_.stall_deadline;
  };

  ServiceClient& client = client_for(instance);
  try {
    const RemoteCampaignStatus status =
        client.status(shard.progress.campaign_id);
    if (status.daemon_draining && instance.healthy) {
      // Rolling upgrade in progress: stop handing this instance new shards,
      // but keep polling — a draining daemon finishes (or journals) what it
      // already holds, and this shard is collected below like any other.
      EMUTILE_WARN("fleet instance '" << instance.config.name
                                      << "' is draining — rotating out");
      instance.healthy = false;
    }
    if (status.sessions_done > shard.progress.sessions_done)
      shard.last_progress = Clock::now();
    shard.progress.sessions_done = status.sessions_done;
    if (status.state == "finished") {
      // Already terminal, so WAIT returns immediately — it confirms the
      // final report hit the disk before we fetch it.
      static_cast<void>(client.wait(shard.progress.campaign_id,
                                    options_.request_timeout_ms));
      collect(shard, parse_campaign_report(client.fetch_shard_report(
                         shard.progress.campaign_id)));
    } else if (status.terminal()) {
      // failed or cancelled out from under us: the instance answered, so it
      // stays healthy, but this shard needs a new home.
      give_back(shard, "campaign ended " + status.state,
                /*instance_dead=*/false);
    } else if (stalled()) {
      try {
        client.cancel(shard.progress.campaign_id);  // best-effort
      } catch (const std::exception&) {
      }
      give_back(shard, "no progress past the stall deadline",
                /*instance_dead=*/true);
    }
  } catch (const std::exception& e) {
    give_back(shard, e.what(), /*instance_dead=*/true);
  }
}

void CampaignCoordinator::run_local(ShardWork& shard) {
  CampaignOptions options;
  options.num_threads = std::max<std::size_t>(1, options_.local_threads);
  options.campaign_id = "shard" + std::to_string(shard.progress.shard);
  shard.progress.state = ShardState::kLocal;
  shard.progress.instance = "local";
  ++shard.progress.dispatches;
  if (shard.progress.dispatches > 1) {
    ++redispatches_;
    MetricsRegistry::global().counter("coordinator.redispatches").add();
  }
  ++local_shards_;
  MetricsRegistry::global().counter("coordinator.local_fallbacks").add();
  if (options_.journal)
    options_.journal->record("local-fallback",
                             {{"shard", shard.progress.shard}});
  // Explicit parent: the in-process fallback runs on the supervision thread,
  // but the run root was opened via record_span, not the TLS stack.
  const ScopedSpan local_span(Tracer::global(), "orchestrate.local",
                              run_root_);
  shard.report = run_campaign(shard.spec, options);
  shard.progress.state = ShardState::kDone;
  shard.progress.sessions_done = shard.progress.sessions_total;
}

void CampaignCoordinator::maybe_steal() {
  if (!serializable_) return;
  // Pending shards would soak up an idle instance through the normal
  // dispatch path — stealing only makes sense once everything is placed.
  for (const auto& shard : shards_)
    if (shard->progress.state == ShardState::kPending) return;

  // An idle instance: healthy, accepting work, and serving no in-flight
  // shard.
  std::size_t idle = instances_.size();
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const InstanceState& instance = instances_[i];
    if (!instance.healthy || instance.retired) continue;
    bool busy = false;
    for (const auto& shard : shards_)
      busy = busy || (shard->progress.state == ShardState::kRemote &&
                      shard->instance_index == i);
    if (!busy) {
      idle = i;
      break;
    }
  }
  if (idle == instances_.size()) return;

  // The victim: the in-flight shard with the most remaining sessions.
  // measure_baselines shards assign baseline scenarios round-robin by shard
  // index, which slicing would disturb — leave them whole.
  ShardWork* victim = nullptr;
  std::size_t most_remaining = 0;
  for (const auto& shard : shards_) {
    if (shard->progress.state != ShardState::kRemote) continue;
    if (shard->spec.measure_baselines) continue;
    const std::size_t done =
        std::min(shard->progress.sessions_done, shard->progress.sessions_total);
    const std::size_t remaining = shard->progress.sessions_total - done;
    if (remaining >= kMinStealSessions && remaining > most_remaining) {
      most_remaining = remaining;
      victim = shard.get();
    }
  }
  if (victim == nullptr) return;

  // Split the victim's *unfinished* range in half: jobs run in expansion
  // order, so [job_begin + done, job_end) approximates what is left. The
  // victim keeps the front half (its caches are warm there — completed
  // sessions in the re-run are cache hits); the back half goes to the idle
  // instance. Clamped so both halves stay non-empty.
  const std::size_t done =
      std::min(victim->progress.sessions_done, victim->progress.sessions_total);
  std::size_t mid = victim->job_begin + done +
                    (victim->job_end - victim->job_begin - done) / 2;
  mid = std::clamp(mid, victim->job_begin + 1, victim->job_end - 1);

  // Best-effort cancel of the victim's in-flight campaign — it is about to
  // be superseded by the narrowed re-dispatch. A failed cancel just wastes
  // remote cycles; the result cache makes the overlap free either way.
  try {
    client_for(instances_[victim->instance_index])
        .cancel(victim->progress.campaign_id);
  } catch (const std::exception&) {
  }

  auto stolen = std::make_unique<ShardWork>();
  stolen->spec = victim->spec.slice(mid, victim->job_end);
  stolen->text = serialize_campaign_spec(stolen->spec);
  stolen->job_begin = mid;
  stolen->job_end = victim->job_end;
  stolen->preferred_instance = static_cast<int>(idle);
  stolen->progress.shard = shards_.size();
  stolen->progress.sessions_total = stolen->spec.expand().size();

  const std::size_t victim_index = victim->progress.shard;
  victim->spec = victim->spec.slice(victim->job_begin, mid);
  victim->text = serialize_campaign_spec(victim->spec);
  victim->job_end = mid;
  victim->progress.state = ShardState::kPending;
  victim->wait.close();
  victim->progress.campaign_id.clear();
  victim->progress.sessions_done = 0;
  victim->progress.sessions_total = victim->spec.expand().size();
  victim->last_progress = Clock::now();
  // No preference: cache affinity routes the narrowed front half straight
  // back to the instance that was already running it.

  ++steals_;
  MetricsRegistry::global().counter("coordinator.steals").add();
  EMUTILE_WARN("stealing jobs [" << mid << ", " << stolen->job_end
                                 << ") of shard " << victim_index
                                 << " for idle instance '"
                                 << instances_[idle].config.name << "'");
  if (options_.journal)
    options_.journal->record("steal",
                             {{"victim", victim_index},
                              {"shard", stolen->progress.shard},
                              {"instance", instances_[idle].config.name},
                              {"at", mid}});
  shards_.push_back(std::move(stolen));
}

void CampaignCoordinator::apply_fleet(const FleetConfig& fresh) {
  const auto find_fresh = [&](const std::string& name) -> const FleetInstance* {
    for (const FleetInstance& instance : fresh.instances)
      if (instance.name == name) return &instance;
    return nullptr;
  };
  for (InstanceState& instance : instances_) {
    const FleetInstance* updated = find_fresh(instance.config.name);
    if (updated == nullptr) {
      if (!instance.retired) {
        EMUTILE_WARN("fleet instance '" << instance.config.name
                                        << "' left the fleet — retiring");
        instance.retired = true;
        if (options_.journal)
          options_.journal->record("retire",
                                   {{"instance", instance.config.name}});
      }
      continue;
    }
    if (instance.retired || !(updated->address == instance.config.address)) {
      // Back in the fleet, possibly at a new address: reconnect and rejoin.
      instance.config = *updated;
      instance.client.reset();
      instance.healthy = true;
      instance.retired = false;
    }
  }
  for (const FleetInstance& instance : fresh.instances) {
    const auto known = std::find_if(
        instances_.begin(), instances_.end(), [&](const InstanceState& state) {
          return state.config.name == instance.name;
        });
    if (known != instances_.end()) continue;
    EMUTILE_WARN("fleet instance '" << instance.name
                                    << "' joined mid-campaign");
    InstanceState state;
    state.config = instance;
    if (!serializable_) state.healthy = false;
    instances_.push_back(std::move(state));
    ++joined_instances_;
    MetricsRegistry::global().counter("coordinator.joins").add();
    if (options_.journal)
      options_.journal->record("join", {{"instance", instance.name}});
  }
}

void CampaignCoordinator::poll_membership() {
  if (options_.fleet_file.empty()) return;
  // Explicit reload (the orchestrate tool's SIGHUP handler flips this).
  bool reload = options_.reload_flag != nullptr &&
                options_.reload_flag->exchange(false);
  // Fleet-file watch: any mtime change triggers a re-read.
  if (!reload) {
    std::error_code ec;
    const auto mtime =
        std::filesystem::last_write_time(options_.fleet_file, ec);
    if (!ec && mtime != fleet_file_mtime_) {
      fleet_file_mtime_ = mtime;
      reload = true;
    }
  }
  if (reload) {
    try {
      apply_fleet(load_fleet_config_file(options_.fleet_file));
    } catch (const std::exception& e) {
      EMUTILE_WARN("fleet reload failed (keeping current membership): "
                   << e.what());
    }
  }
}

FleetSnapshot CampaignCoordinator::snapshot() const {
  FleetSnapshot snap;
  snap.total_instances = instances_.size();
  for (const InstanceState& instance : instances_)
    if (instance.healthy && !instance.retired) ++snap.healthy_instances;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snap.shards.push_back(shard->progress);
    snap.sessions_done += shard->progress.sessions_done;
    snap.sessions_total += shard->progress.sessions_total;
    if (shard->progress.state == ShardState::kDone) ++snap.shards_done;
  }
  return snap;
}

OrchestrationResult CampaignCoordinator::run(const CampaignSpec& spec) {
  EMUTILE_CHECK(spec.shard_count == 1,
                "the coordinator shards the spec itself — pass it unsharded");
  EMUTILE_CHECK(!spec.sliced(),
                "the coordinator slices the spec itself — pass it unsliced");
  EMUTILE_CHECK(options_.poll_interval.count() > 0,
                "poll_interval must be positive (got "
                    << options_.poll_interval.count() << " ms)");
  // A coordinator may be reused: each run's counters start from zero.
  rr_cursor_ = 0;
  redispatches_ = 0;
  local_shards_ = 0;
  steals_ = 0;
  affinity_dispatches_ = 0;
  joined_instances_ = 0;
  shards_.clear();
  instances_.clear();

  // Root the run's trace: adopt the caller's context or mint a fresh trace.
  // orchestrate.run is synthesized at the end (record_span) rather than
  // scoped, so dispatch() can parent on it from the first tick.
  run_root_ = Tracer::global().child_context(options_.trace);
  const std::uint64_t run_start_us = journal_now_us();

  // A spec that cannot travel the wire (custom netlist builders) can still
  // be orchestrated — entirely in-process.
  serializable_ = true;
  try {
    static_cast<void>(serialize_campaign_spec(spec));
  } catch (const CheckError&) {
    serializable_ = false;
  }

  std::size_t num_shards =
      options_.num_shards > 0 ? options_.num_shards : fleet_.instances.size();
  num_shards = std::max<std::size_t>(1, num_shards);
  if (!serializable_) {
    EMUTILE_CHECK(options_.allow_local_fallback,
                  "spec has custom-builder designs (no wire form) and local "
                  "fallback is disabled");
    num_shards = 1;
  }

  const std::size_t total_jobs = spec.num_sessions();
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<ShardWork>();
    shard->spec = num_shards == 1 ? spec : spec.shard(i, num_shards);
    if (serializable_) shard->text = serialize_campaign_spec(shard->spec);
    shard->progress.shard = i;
    shard->progress.sessions_total = shard->spec.expand().size();
    // Mirror expand()'s contiguous slicing so job ranges line up exactly.
    shard->job_begin = total_jobs * i / num_shards;
    shard->job_end = total_jobs * (i + 1) / num_shards;
    shards_.push_back(std::move(shard));
  }

  instances_.reserve(fleet_.instances.size());
  for (const FleetInstance& instance : fleet_.instances) {
    InstanceState state;
    state.config = instance;
    if (!serializable_) state.healthy = false;
    instances_.push_back(std::move(state));
  }

  // Elasticity plumbing: remember the fleet file's starting mtime (only
  // *changes* trigger a reload).
  if (!options_.fleet_file.empty()) {
    std::error_code ec;
    fleet_file_mtime_ =
        std::filesystem::last_write_time(options_.fleet_file, ec);
  }

  // Per-run sockets (parked WAITs, persistent clients) close when run()
  // ends, by return or by throw — a reused coordinator re-dials rather than
  // holding fleet sockets open between runs.
  struct CloseRunSockets {
    CampaignCoordinator& self;
    ~CloseRunSockets() {
      for (const auto& shard : self.shards_) shard->wait.close();
      for (InstanceState& instance : self.instances_) instance.client.reset();
    }
  } close_run_sockets{*this};

  // The supervision loop: reconcile membership, dispatch pending shards,
  // on each tick poll in-flight ones and steal for idle instances, stream a
  // snapshot, then wait — in one poll(2) over the parked WAITs, bounded by
  // the next tick — for a shard to finish. A shard bounces kPending ->
  // kRemote -> kDone, detouring back to kPending on every failure until it
  // exhausts the fleet (one dispatch per instance plus slack) and runs
  // locally.
  Clock::time_point last_reprobe = Clock::now();
  Clock::time_point next_tick = Clock::now();
  for (;;) {
    const bool tick = Clock::now() >= next_tick;
    poll_membership();

    // Re-probe unhealthy instances on the reprobe cadence: a PING
    // answered means a live daemon is back on that address (typically the
    // upgraded replacement of a drained one, re-attached to the same root)
    // and it rejoins the rotation. A dead address fails the connect inside
    // ping() and stays out — probing it costs microseconds.
    if (options_.reprobe_interval.count() > 0 &&
        Clock::now() - last_reprobe >= options_.reprobe_interval) {
      last_reprobe = Clock::now();
      for (InstanceState& instance : instances_) {
        if (instance.healthy || instance.retired) continue;
        if (client_for(instance).ping()) {
          EMUTILE_WARN("fleet instance '" << instance.config.name
                                          << "' answered a re-probe — "
                                          << "rejoining the rotation");
          MetricsRegistry::global().counter("coordinator.rejoins").add();
          if (options_.journal)
            options_.journal->record("rejoin",
                                     {{"instance", instance.config.name}});
          instance.healthy = true;
        }
      }
    }

    // One dispatch per live instance plus slack; joins raise the budget.
    const std::size_t max_remote_dispatches = instances_.size() + 1;
    std::size_t done = 0;
    bool any_healthy = false;
    for (const InstanceState& instance : instances_)
      any_healthy =
          any_healthy || (instance.healthy && !instance.retired);

    // Index loop: maybe_steal() below appends, and a re-dispatched shard
    // appended this very pass should still be considered next pass.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardWork& shard = *shards_[i];
      if (shard.progress.state == ShardState::kPending) {
        const bool exhausted =
            shard.progress.dispatches >= max_remote_dispatches;
        if (any_healthy && !exhausted && dispatch(shard)) {
          // in flight now
        } else if (!any_healthy || exhausted) {
          EMUTILE_CHECK(options_.allow_local_fallback,
                        "no healthy fleet instance left for shard "
                            << shard.progress.shard
                            << " and local fallback is disabled");
          run_local(shard);
        }
        // else: every healthy instance answered busy — stay pending and
        // retry next pass; their bounded queues are draining.
      } else if (shard.progress.state == ShardState::kRemote && tick) {
        poll_shard(shard);
      }
      if (shard.progress.state == ShardState::kDone) ++done;
    }

    if (tick) {
      maybe_steal();
      next_tick = Clock::now() + options_.poll_interval;
    }

    if (options_.on_snapshot) options_.on_snapshot(snapshot());
    if (done == shards_.size()) break;
    await_completions(next_tick);
  }

  OrchestrationResult result;
  result.num_shards = shards_.size();
  result.redispatches = redispatches_;
  result.local_shards = local_shards_;
  result.steals = steals_;
  result.affinity_dispatches = affinity_dispatches_;
  result.joined_instances = joined_instances_;
  // Merge in job order. Stealing may have appended shards out of index
  // order, but every shard covers a disjoint contiguous job range, so
  // sorting by job_begin restores the exact order the byte-identity
  // contract of CampaignReport::merge is tested against.
  std::vector<ShardWork*> ordered;
  ordered.reserve(shards_.size());
  for (const auto& shard : shards_) ordered.push_back(shard.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardWork* a, const ShardWork* b) {
              return a->job_begin < b->job_begin;
            });
  for (ShardWork* shard : ordered) result.report.merge(shard->report);
  result.shards.reserve(shards_.size());
  for (const auto& shard : shards_) result.shards.push_back(shard->progress);

  // Fleet-wide observability: fold every reachable instance's
  // registry into one snapshot (integral values, so the merged series equal
  // the per-instance sums exactly). Best-effort — a dead instance loses its
  // metrics, never the run. Retired instances are still asked: they may
  // have served shards before leaving.
  if (options_.collect_metrics) {
    for (InstanceState& instance : instances_) {
      try {
        result.fleet_metrics.merge(
            parse_metrics_text(client_for(instance).fetch_metrics()));
        ++result.metrics_instances;
      } catch (const std::exception& e) {
        EMUTILE_WARN("fleet instance '" << instance.config.name
                                        << "' skipped in the metrics merge: "
                                        << e.what());
      }
    }
    if (options_.journal)
      options_.journal->record("fleet-metrics",
                               {{"instances", result.metrics_instances}});
  }

  // Fleet trace stitching: close the run root, then pull every instance's span buffer over TRACESPANS and splice it onto the local
  // clock. journal_now_us() is a per-process epoch, so remote stamps mean
  // nothing here as-is; the reply's now_us was taken roughly at the
  // exchange midpoint, so midpoint - now_us estimates the remote→local
  // offset (symmetric-latency assumption, the NTP one). Best-effort like
  // the metrics merge — a dead instance loses its spans, never the run.
  Tracer& tracer = Tracer::global();
  tracer.record_span("orchestrate.run", run_root_,
                     options_.trace.valid() ? options_.trace.span_id : 0,
                     run_start_us, journal_now_us() - run_start_us);
  result.trace = run_root_;
  if (options_.collect_trace) {
    std::vector<TraceSpan> stitched =
        tracer.collect_trace(run_root_.trace_id, /*include_open=*/false);
    for (InstanceState& instance : instances_) {
      try {
        ServiceClient& client = client_for(instance);
        const std::uint64_t t0 = journal_now_us();
        RemoteTraceSpans remote =
            client.fetch_trace_spans(run_root_.trace_id);
        const std::uint64_t t1 = journal_now_us();
        const std::int64_t offset =
            static_cast<std::int64_t>((t0 + t1) / 2) -
            static_cast<std::int64_t>(remote.now_us);
        std::vector<TraceSpan> spans = std::move(remote.spans);
        // Other traces' spans (and still-open ones — no defensible
        // duration) stay behind. The daemon already filters; this keeps a
        // daemon that predates the TRACESPANS filter correct.
        spans.erase(
            std::remove_if(spans.begin(), spans.end(),
                           [&](const TraceSpan& s) {
                             return s.open ||
                                    s.trace_id != run_root_.trace_id;
                           }),
            spans.end());
        shift_spans(spans, offset);
        stitched.insert(stitched.end(),
                        std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
        ++result.trace_instances;
      } catch (const std::exception& e) {
        EMUTILE_WARN("fleet instance '" << instance.config.name
                                        << "' skipped in the trace stitch: "
                                        << e.what());
      }
    }
    // In-process fleets share one global tracer, so a span can arrive both
    // locally and over the wire — keep the first copy, then restore the
    // canonical (start_us, span_id) order the shifts may have disturbed.
    stitched = dedup_spans(std::move(stitched));
    std::sort(stitched.begin(), stitched.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.start_us != b.start_us ? a.start_us < b.start_us
                                                : a.span_id < b.span_id;
              });
    result.fleet_trace = std::move(stitched);
    if (options_.journal)
      options_.journal->record("fleet-trace",
                               {{"instances", result.trace_instances},
                                {"spans", result.fleet_trace.size()}});
  }
  return result;
}

AdaptiveRoundExecutor make_adaptive_executor(CampaignCoordinator& coordinator) {
  return [&coordinator](const CampaignSpec& spec, std::size_t) {
    return coordinator.run(spec).report;
  };
}

}  // namespace emutile
