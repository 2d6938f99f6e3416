#include "campaign/campaign_engine.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "campaign/campaign_spec_io.hpp"
#include "campaign/result_cache.hpp"
#include "core/tiled_baseline_cache.hpp"
#include "designs/catalog.hpp"
#include "eco/eco_strategies.hpp"
#include "hier/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace emutile {

Netlist build_campaign_golden(const CampaignSpec& spec,
                              std::size_t design_index) {
  const CampaignDesign& d = spec.designs.at(design_index);
  const std::uint64_t seed = spec.design_seed(design_index);
  return d.builder ? d.builder(seed) : build_paper_design(d.name, seed);
}

ScenarioBaseline measure_baseline_pair(const CampaignSpec& spec,
                                       std::size_t pair_index,
                                       const Netlist& golden) {
  const std::size_t design_index = pair_index / spec.tilings.size();
  TilingParams tiling = spec.tilings[pair_index % spec.tilings.size()];
  const std::uint64_t seed = spec.baseline_seed(pair_index);
  ScenarioBaseline result;
  try {
    tiling.seed = seed;
    TiledDesign tiled = TilingEngine::build(Netlist(golden), tiling);
    TiledDesign for_quick = tiled.clone();
    TiledDesign for_incremental = tiled.clone();
    TiledDesign for_full = tiled.clone();

    const EcoStrategyResult rt =
        tiled_eco(tiled, scripted_standard_change(tiled), spec.eco);
    DesignHierarchy hier(spec.designs[design_index].name);
    hier.bind_remaining(for_quick.netlist, hier.add_block("functional_block"));
    const EcoStrategyResult rq =
        quick_eco(for_quick, hier, scripted_standard_change(for_quick), seed);
    IncrementalOptions incremental_options;
    incremental_options.seed = seed;
    const EcoStrategyResult ri =
        incremental_eco(for_incremental,
                        scripted_standard_change(for_incremental),
                        incremental_options);
    const EcoStrategyResult rf =
        full_eco(for_full, scripted_standard_change(for_full), seed);

    const double tiled_work = work_units(rt.effort);
    const double quick_work = work_units(rq.effort);
    const double incremental_work = work_units(ri.effort);
    const double full_work = work_units(rf.effort);
    // All four strategies must have done real work, or the ratios (and the
    // geomean over them) are meaningless.
    if (!rt.success || tiled_work <= 0.0 || quick_work <= 0.0 ||
        incremental_work <= 0.0 || full_work <= 0.0)
      return result;
    result.measured = true;
    result.speedup_quick = quick_work / tiled_work;
    result.speedup_incremental = incremental_work / tiled_work;
    result.speedup_full = full_work / tiled_work;
  } catch (const std::exception& e) {
    EMUTILE_WARN("baseline measurement failed: " << e.what());
  }
  return result;
}

std::vector<ScenarioBaseline> fan_out_baselines(
    const CampaignSpec& spec, const std::vector<ScenarioBaseline>& per_pair) {
  EMUTILE_CHECK(per_pair.size() == spec.designs.size() * spec.tilings.size(),
                "per-pair baseline count does not match the spec");
  std::vector<ScenarioBaseline> baselines(spec.num_scenarios());
  for (std::size_t sc = 0; sc < baselines.size(); ++sc) {
    const std::size_t ti = sc % spec.tilings.size();
    const std::size_t di =
        sc / (spec.tilings.size() * spec.error_kinds.size());
    baselines[sc] = per_pair[di * spec.tilings.size() + ti];
  }
  return baselines;
}

namespace {

/// Content key of the (design, tiling) pair's pre-injection baseline: the
/// golden netlist identity (catalog name + design seed) plus every tiling
/// parameter. Custom-builder designs have no stable content identity and
/// never share a baseline cache entry.
std::string tiled_baseline_key(const CampaignSpec& spec,
                               const CampaignJob& job) {
  const TilingParams& t = job.options.tiling;
  std::ostringstream os;
  os << "emutile-baseline-key v1 design="
     << spec.designs[job.design_index].name
     << " dseed=" << spec.design_seed(job.design_index) << " tiling="
     << t.num_tiles << "," << format_double_exact(t.target_overhead) << ","
     << format_double_exact(t.placer_effort) << "," << t.tracks_per_channel
     << "," << t.route_headroom << "," << t.seed;
  return os.str();
}

}  // namespace

SessionOutcome run_campaign_session(const CampaignSpec& spec,
                                    const CampaignJob& job,
                                    const Netlist& golden,
                                    const std::function<bool()>& cancel,
                                    ResultCache* cache, CacheLookup* lookup,
                                    TiledBaselineCache* baselines) {
  if (lookup) *lookup = CacheLookup::kNotConsulted;
  SessionOutcome out;
  if (cancel && cancel()) {
    out.report.cancelled = true;
    return out;
  }
  const bool cacheable =
      cache != nullptr && !spec.designs[job.design_index].builder;
  std::uint64_t key = 0;
  if (cacheable) {
    key = session_cache_key(spec, job);
    // Cache IO failures (unreadable directory, disk trouble) must not break
    // the never-throws contract — they degrade to an uncached run.
    try {
      const ScopedSpan lookup_span(Tracer::global(), "cache.lookup");
      if (std::optional<CachedSession> hit = cache->load(key)) {
        if (lookup) *lookup = CacheLookup::kHit;
        return from_cached(*hit);
      }
    } catch (const std::exception& e) {
      EMUTILE_WARN("cache load failed for key " << key << ": " << e.what());
    }
    if (lookup) *lookup = CacheLookup::kMiss;
  }
  DebugSessionOptions session = job.options;
  // Warm start: share one pre-injection tiled baseline across every session
  // of this (design, tiling) pair. Connection errors change connectivity
  // and would build cold anyway, so they skip the lookup; a baseline build
  // failure degrades to a cold build (the session will hit the same error
  // and record it properly).
  double baseline_wall_seconds = 0.0;
  if (baselines != nullptr && !spec.designs[job.design_index].builder &&
      job.options.error_kind != ErrorKind::kWrongConnection) {
    const auto baseline_t0 = std::chrono::steady_clock::now();
    try {
      session.warm_baseline = baselines->get_or_build(
          tiled_baseline_key(spec, job), [&] {
            return TilingEngine::build(Netlist(golden), job.options.tiling);
          });
    } catch (const std::exception& e) {
      EMUTILE_WARN("baseline build failed, session builds cold: "
                   << e.what());
    }
    // The session that builds the shared baseline did real build work; fold
    // it into this session's build phase below so the timing profile never
    // under-reports warm-start mode (cache hits add ~nothing here).
    baseline_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      baseline_t0)
            .count();
  }
  // Per-phase trace spans: on_phase fires just before each phase on this
  // thread, so the hook closes the previous phase's span and opens the next
  // (the TLS parent — session.run — is already on the stack). The span state
  // sits behind a shared_ptr because hooks are copyable std::functions.
  struct PhaseSpans {
    std::optional<ScopedSpan> open;
    void enter(SessionPhase phase) {
      open.reset();
      open.emplace(Tracer::global(),
                   std::string("session.phase.") + to_string(phase));
    }
  };
  const auto phase_spans = std::make_shared<PhaseSpans>();
  const auto phase_hook = std::move(session.hooks.on_phase);
  session.hooks.on_phase = [phase_hook, phase_spans](SessionPhase phase) {
    if (phase_hook && !phase_hook(phase)) return false;
    phase_spans->enter(phase);
    return true;
  };
  if (cancel) {
    // Compose campaign cancellation with any caller-provided hook.
    const auto user_hook = std::move(session.hooks.on_phase);
    session.hooks.on_phase = [user_hook, cancel](SessionPhase phase) {
      if (cancel()) return false;
      return !user_hook || user_hook(phase);
    };
  }
  try {
    out.report = run_debug_session(golden, session);
    phase_spans->open.reset();
    if (baseline_wall_seconds > 0.0) {
      out.report.phase_seconds[static_cast<std::size_t>(
          SessionPhase::kBuild)] += baseline_wall_seconds;
      out.report.wall_seconds += baseline_wall_seconds;
    }
    // Feed the phase-timer data into the process-wide latency histograms
    // (session.wall_us, session.phase_us.<phase>). Observability only: the
    // deterministic report path never reads these.
    if (!out.report.cancelled) {
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.histogram("session.wall_us")
          .record(static_cast<std::uint64_t>(out.report.wall_seconds * 1e6));
      for (std::size_t p = 0; p < kNumSessionPhases; ++p) {
        reg.histogram(std::string("session.phase_us.") +
                      to_string(static_cast<SessionPhase>(p)))
            .record(static_cast<std::uint64_t>(out.report.phase_seconds[p] *
                                               1e6));
      }
    }
  } catch (const std::exception& e) {
    phase_spans->open.reset();
    out.error = e.what();
  }
  // A cancelled outcome reflects this driver's state, not the spec, and an
  // exception may be transient (resource exhaustion) — only spec-determined
  // successful results may be memoized, or a one-off failure would replay
  // from the cache forever. A failed store (disk full, permissions, cache
  // dir removed) just means this result is not memoized.
  if (cacheable && !out.report.cancelled && out.error.empty()) {
    try {
      // Durability ordering under test: a crash here leaves the result
      // neither cached nor journaled, so a restart re-runs the session —
      // the only acceptable loss. The reverse order (journal before cache)
      // would let a journal record point at a result that never landed.
      EMUTILE_FAULT_POINT("cache.pre-store");
      cache->store(key, to_cached(out));
    } catch (const std::exception& e) {
      EMUTILE_WARN("cache store failed for key " << key
                                                 << ", result not memoized: "
                                                 << e.what());
    }
  }
  return out;
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  EMUTILE_CHECK(options.num_threads >= 1, "campaign needs at least 1 thread");
  const std::vector<CampaignJob> jobs = spec.expand();
  ThreadPool pool(options.num_threads);

  // Shared pre-injection baselines: the first session of each (design,
  // tiling) pair builds one, the rest clone it. A caller-provided cache
  // amortizes across campaigns (the session service); otherwise the cache
  // lives for this run only.
  TiledBaselineCache local_tiled_baselines;
  TiledBaselineCache* tiled_baselines =
      options.warm_start
          ? (options.baseline_cache ? options.baseline_cache
                                    : &local_tiled_baselines)
          : nullptr;

  // A sharded spec only needs part of the campaign's work: goldens for the
  // designs its job slice touches, and the baseline pairs assigned to it.
  // Baseline pairs are round-robin partitioned across shards so one fleet
  // measures each pair exactly once; the union over all shards covers every
  // pair (merge() keeps whichever shard measured a scenario).
  const std::size_t baseline_pairs = spec.designs.size() * spec.tilings.size();
  std::vector<char> design_has_jobs(spec.designs.size(),
                                    spec.shard_count == 1 ? 1 : 0);
  if (spec.shard_count > 1)
    for (const CampaignJob& job : jobs) design_has_jobs[job.design_index] = 1;
  const auto pair_assigned = [&](std::size_t u) {
    return spec.shard_count == 1 || u % spec.shard_count == spec.shard_index;
  };
  std::vector<char> design_needed = design_has_jobs;
  if (spec.measure_baselines)
    for (std::size_t u = 0; u < baseline_pairs; ++u)
      if (pair_assigned(u)) design_needed[u / spec.tilings.size()] = 1;

  // Build the needed golden netlists once; sessions share them read-only
  // (each session copies before mutating).
  std::vector<Netlist> goldens(spec.designs.size());
  std::vector<std::string> golden_errors(spec.designs.size());
  pool.parallel_for(spec.designs.size(), [&](std::size_t i) {
    if (!design_needed[i]) return;
    try {
      goldens[i] = build_campaign_golden(spec, i);
    } catch (const std::exception& e) {
      golden_errors[i] = e.what();
    }
  });

  std::vector<SessionOutcome> outcomes(jobs.size());
  std::size_t finished = 0;     // guarded by progress_mutex
  std::size_t cache_hits = 0;   // guarded by progress_mutex
  std::size_t cache_misses = 0; // guarded by progress_mutex
  std::mutex progress_mutex;
  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const CampaignJob& job = jobs[i];
    CacheLookup lookup = CacheLookup::kNotConsulted;
    if (!golden_errors[job.design_index].empty()) {
      // The design never built; cancel is still honored so a cancelled
      // campaign reports these jobs consistently with its siblings.
      if (options.cancel && options.cancel())
        outcomes[i].report.cancelled = true;
      else
        outcomes[i].error = "design '" + spec.designs[job.design_index].name +
                            "' failed to build: " +
                            golden_errors[job.design_index];
    } else {
      outcomes[i] =
          run_campaign_session(spec, job, goldens[job.design_index],
                               options.cancel, options.cache, &lookup,
                               tiled_baselines);
    }
    // Progress fires on every accounting path — completed, failed,
    // cancelled, and cache-served sessions alike.
    std::lock_guard<std::mutex> lock(progress_mutex);
    if (lookup == CacheLookup::kHit) ++cache_hits;
    if (lookup == CacheLookup::kMiss) ++cache_misses;
    ++finished;
    if (options.on_progress)
      options.on_progress(options.campaign_id, finished, jobs.size());
  });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<ScenarioBaseline> baselines;
  if (spec.measure_baselines) {
    // The baseline depends only on (design, tiling), so measure each unique
    // pair once and fan the result out across the error-kind scenarios.
    std::vector<ScenarioBaseline> per_pair(baseline_pairs);
    pool.parallel_for(baseline_pairs, [&](std::size_t u) {
      const std::size_t di = u / spec.tilings.size();
      if (!pair_assigned(u)) return;
      if (!golden_errors[di].empty()) return;
      if (options.cancel && options.cancel()) return;
      per_pair[u] = measure_baseline_pair(spec, u, goldens[di]);
    });
    baselines = fan_out_baselines(spec, per_pair);
  }

  CampaignReport report = build_report(spec, jobs, outcomes, baselines);
  report.wall_seconds = wall_seconds;
  report.num_threads = options.num_threads;
  report.cache_hits = cache_hits;
  report.cache_misses = cache_misses;
  return report;
}

}  // namespace emutile
