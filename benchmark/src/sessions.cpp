/// `sessions` workload: the debug engine in-process, no service.
///
/// Seven catalog designs (largest first, so the long sessions start first)
/// x all three error kinds x kReplicas on one 6-tile tiling: the fixed
/// corpus. nproc - 1 bench threads run a closed loop, each taking the next
/// job in the seed-shuffled request order and calling run_campaign_session
/// with one shared TiledBaselineCache. Golden netlists and warm baselines
/// are built in set-up, as a resident daemon holds them across campaigns.
/// The timed phase repeats whole passes over the job list, so every run
/// measures the same mix: LUT-error sessions are ECO-only (their build
/// clones the warm baseline) while wrong-connection sessions run full cold
/// builds. The corpus is the same for every seed because per-session cost
/// is heavy-tailed: a seed-drawn sample of ~100 sessions moves throughput
/// by ~20% and mean debug work by ~30% between seeds.

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "campaign/campaign_engine.hpp"
#include "core/tiled_baseline_cache.hpp"
#include "workload.hpp"

using namespace emutile;

namespace bench {
namespace {

const std::vector<std::string> kDesigns = {"s9234", "c880", "planet1", "c499",
                                           "sand",  "styr", "9sym"};
constexpr int kReplicas = 5;

/// The order clients take jobs in: the canonical design-major order (largest
/// design first, so a run's final drain is small-design work), shuffled by
/// the workload seed within each design's block.
std::vector<std::size_t> request_order(const std::vector<CampaignJob>& jobs,
                                       std::uint64_t seed) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::size_t begin = 0;
  while (begin < order.size()) {
    std::size_t end = begin;
    while (end < order.size() &&
           jobs[end].design_index == jobs[begin].design_index)
      ++end;
    for (std::size_t k = end - begin; k > 1; --k)
      std::swap(order[begin + k - 1],
                order[begin + derive_seed(seed, 2 + begin + k) % k]);
    begin = end;
  }
  return order;
}

/// What set-up leaves resident for the timed phase.
struct Engine {
  CampaignSpec spec;
  std::vector<CampaignJob> jobs;
  std::vector<std::size_t> order;  ///< request order (indices into jobs)
  std::vector<Netlist> goldens;
  std::unique_ptr<TiledBaselineCache> baselines;
};

/// Set-up runs on one thread, so setup_s is the sum of its work. Spread
/// over the clients, its time depended on how the seven designs packed onto
/// the threads and varied by ~30% between repetitions.
Engine set_up(const CampaignSpec& spec, std::uint64_t seed) {
  Engine e;
  e.spec = spec;
  e.jobs = spec.expand();
  e.order = request_order(e.jobs, seed);
  e.baselines = std::make_unique<TiledBaselineCache>();
  for (std::size_t d = 0; d < spec.designs.size(); ++d)
    e.goldens.push_back(build_campaign_golden(spec, d));
  // The baseline key is the engine's own; running each design's first
  // warm-startable job is the public way to fill it.
  for (std::size_t d = 0; d < spec.designs.size(); ++d)
    for (const CampaignJob& job : e.jobs)
      if (job.design_index == d &&
          job.options.error_kind != ErrorKind::kWrongConnection) {
        static_cast<void>(run_campaign_session(e.spec, job, e.goldens[d], {},
                                               nullptr, nullptr,
                                               e.baselines.get()));
        break;
      }
  return e;
}

/// A traced session's report, keyed by its `bench.session` span, for the
/// synthesized P&R spans and the report-derived layer metrics.
struct TracedSession {
  std::uint64_t span_id = 0;
  DebugSessionReport report;
};

/// Output checks shared by every phase of a run.
struct Checks {
  std::mutex mutex;  // guards everything below
  std::vector<std::string> fingerprints;  ///< per job: its first outcome's
  std::vector<std::optional<DebugSessionReport>> first;  ///< per job
  std::vector<TracedSession> traced;  ///< the traced phase's sessions
};

/// Whole passes over the job list. Each outcome is checked against the
/// job's first outcome and the corrected => clean rule.
Phase measure(Engine& e, double seconds, bool traced, std::size_t clients,
              std::size_t& next_index, Tally& tally, Checks& checks) {
  const std::size_t n = e.jobs.size();
  const auto request = [&](std::size_t i, std::size_t) {
    const std::size_t j = e.order[i % n];
    const CampaignJob& job = e.jobs[j];
    const Netlist& golden = e.goldens[job.design_index];
    SessionOutcome outcome;
    std::uint64_t span_id = 0;
    const auto start = std::chrono::steady_clock::now();
    {
      std::optional<ScopedSpan> span;
      if (traced) {
        span.emplace(Tracer::global(), "bench.session");
        span_id = span->context().span_id;
      }
      outcome = run_campaign_session(e.spec, job, golden, {}, nullptr, nullptr,
                                     e.baselines.get());
    }
    const Sample sample{seconds_since(start), 1};

    const bool ok = outcome.error.empty() && !outcome.report.cancelled;
    const std::string print = session_fingerprint(outcome);
    const std::lock_guard<std::mutex> lock(checks.mutex);
    std::string& expected = checks.fingerprints[j];
    if (!ok)
      tally.fail("session failed");
    else if (outcome.report.correction.corrected && !outcome.report.final_clean)
      tally.fail("corrected session not clean");
    else if (!expected.empty() && expected != print)
      tally.fail("session output differs from its first run");
    else
      tally.ok();
    if (expected.empty()) {
      expected = print;
      if (ok) checks.first[j] = outcome.report;
    }
    if (traced) checks.traced.push_back({span_id, std::move(outcome.report)});
    return std::optional<Sample>(sample);
  };
  return run_phase(clients, seconds, n, traced, next_index, request);
}

/// Append `effort`'s place and route time as child spans of `parent`,
/// starting at `start_us` and clipped to the parent's end.
void add_pnr_spans(std::vector<emutile::TraceSpan>& out,
                   const emutile::TraceSpan& parent, std::uint64_t start_us,
                   const PnrEffort& effort, const char* kind,
                   std::uint64_t& next_id) {
  const std::uint64_t end = parent.start_us + parent.dur_us;
  const auto add = [&](const std::string& name, double ms) {
    const auto dur = static_cast<std::uint64_t>(ms * 1000.0);
    const std::uint64_t begin = std::min(start_us, end);
    emutile::TraceSpan s;
    s.name = name;
    s.trace_id = parent.trace_id;
    s.span_id = next_id++;
    s.parent_id = parent.span_id;
    s.start_us = begin;
    s.dur_us = std::min(dur, end - begin);
    s.pid = parent.pid;
    s.tid = parent.tid;
    start_us = begin + s.dur_us;
    out.push_back(std::move(s));
  };
  add(std::string("place.") + kind, effort.place_ms);
  add(std::string("route.") + kind, effort.route_ms);
}

/// P&R has no spans of its own; its time comes back in each report's
/// PnrEffort. Synthesize place/route children under the phase (and
/// localizer round) spans they ran in, so self time splits the phases
/// into P&R and the rest. A warm build's effort is the baseline's ledger,
/// not work done in the session, so it gets no spans.
void synthesize_pnr(Phase& phase, const std::vector<TracedSession>& sessions) {
  std::unordered_map<std::uint64_t, std::vector<const emutile::TraceSpan*>>
      children;
  for (const emutile::TraceSpan& s : phase.spans)
    children[s.parent_id].push_back(&s);
  const auto child = [&](std::uint64_t parent, const std::string& name) {
    std::vector<const emutile::TraceSpan*> found;
    for (const emutile::TraceSpan* s : children[parent])
      if (s->name == name) found.push_back(s);
    std::sort(found.begin(), found.end(), [](auto* a, auto* b) {
      return a->start_us < b->start_us;
    });
    return found;
  };
  std::vector<emutile::TraceSpan> added;
  std::uint64_t next_id = 0xb000000000000000ull;
  for (const TracedSession& t : sessions) {
    const DebugSessionReport& r = t.report;
    for (const auto* build : child(t.span_id, "session.phase.build"))
      if (!r.warm_started)
        add_pnr_spans(added, *build, build->start_us, r.build_effort, "build",
                      next_id);
    for (const auto* correct : child(t.span_id, "session.phase.correct"))
      add_pnr_spans(added, *correct, correct->start_us,
                    r.correction.total_effort, "eco", next_id);
    for (const auto* localize : child(t.span_id, "session.phase.localize")) {
      const auto rounds = child(localize->span_id, "localizer.round");
      PnrEffort rest = r.localization.teardown_effort;
      for (std::size_t k = 0; k < r.localization.iterations.size(); ++k) {
        PnrEffort round = r.localization.iterations[k].insert_effort;
        round += r.localization.iterations[k].remove_effort;
        if (k < rounds.size())
          add_pnr_spans(added, *rounds[k], rounds[k]->start_us, round, "eco",
                        next_id);
        else
          rest += round;
      }
      const auto rest_us =
          static_cast<std::uint64_t>((rest.place_ms + rest.route_ms) * 1000.0);
      const std::uint64_t end = localize->start_us + localize->dur_us;
      add_pnr_spans(added, *localize, end - std::min(rest_us, localize->dur_us),
                    rest, "eco", next_id);
    }
  }
  phase.spans.insert(phase.spans.end(), added.begin(), added.end());
}

/// Per-layer metrics read from returned reports: deterministic work counts
/// from the first pass, P&R milliseconds from the traced sessions.
void fill_report_layers(const std::vector<std::optional<DebugSessionReport>>& first,
                        const std::vector<TracedSession>& traced,
                        WorkloadResult& result) {
  MetricSet& m = result.per_layer;
  double completed = 0, warm = 0, detected = 0, rounds = 0, inserted = 0,
         retargeted = 0, suspects = 0, before = 0, after = 0, corrected = 0,
         attempts = 0, at_site = 0, cold = 0;
  PnrEffort build, eco;
  for (const auto& r : first) {
    if (!r) continue;
    ++completed;
    warm += r->warm_started;
    if (!r->warm_started) {
      ++cold;
      build += r->build_effort;
    }
    eco += r->debug_effort;
    if (!r->detection.error_detected) continue;
    ++detected;
    rounds += static_cast<double>(r->localization.iterations.size());
    suspects += static_cast<double>(r->localization.suspects.size());
    for (const LocalizeIteration& it : r->localization.iterations) {
      inserted += static_cast<double>(it.probes_inserted);
      retargeted += static_cast<double>(it.probes_retargeted);
      before += static_cast<double>(it.candidates_before);
      after += static_cast<double>(it.candidates_after);
    }
    attempts += r->correction.attempts;
    if (r->correction.corrected) {
      ++corrected;
      at_site += r->correction.fixed_cell == r->injected.cell;
    }
  }
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  m.set("campaign.warm_build_ratio", ratio(warm, completed));
  m.set("localize.rounds", ratio(rounds, detected));
  m.set("localize.probes_inserted", ratio(inserted, detected));
  m.set("localize.probes_retargeted", ratio(retargeted, detected));
  m.set("localize.suspects", ratio(suspects, detected));
  m.set("localize.narrow_ratio", ratio(after, before));
  m.set("correct.attempts", ratio(attempts, detected));
  m.set("correct.at_site_ratio", ratio(at_site, corrected));
  m.set("place.build_instances",
        ratio(static_cast<double>(build.instances_placed), cold));
  m.set("route.build_nets", ratio(static_cast<double>(build.nets_routed), cold));
  m.set("route.build_nodes",
        ratio(static_cast<double>(build.nodes_expanded), cold));
  m.set("place.eco_instances",
        ratio(static_cast<double>(eco.instances_placed), completed));
  m.set("route.eco_nets", ratio(static_cast<double>(eco.nets_routed), completed));
  m.set("route.eco_nodes",
        ratio(static_cast<double>(eco.nodes_expanded), completed));
  m.set("route.nodes_per_net",
        ratio(static_cast<double>(build.nodes_expanded + eco.nodes_expanded),
              static_cast<double>(build.nets_routed + eco.nets_routed)));

  double build_place = 0, build_route = 0, eco_place = 0, eco_route = 0,
         cold_n = 0, warm_n = 0, cold_s = 0, warm_s = 0;
  for (const TracedSession& t : traced) {
    const DebugSessionReport& r = t.report;
    const double build_s =
        r.phase_seconds[static_cast<std::size_t>(SessionPhase::kBuild)];
    if (r.warm_started) {
      ++warm_n;
      warm_s += build_s;
    } else {
      ++cold_n;
      cold_s += build_s;
      build_place += r.build_effort.place_ms;
      build_route += r.build_effort.route_ms;
    }
    eco_place += r.debug_effort.place_ms;
    eco_route += r.debug_effort.route_ms;
  }
  const double sessions = cold_n + warm_n;
  m.set("core.cold_build_s", ratio(cold_s, cold_n));
  m.set("core.rebase_s", ratio(warm_s, warm_n));
  m.set("place.build_ms", ratio(build_place, cold_n));
  m.set("route.build_ms", ratio(build_route, cold_n));
  m.set("place.eco_ms", ratio(eco_place, sessions));
  m.set("route.eco_ms", ratio(eco_route, sessions));
}

}  // namespace

void run_sessions(const RunArgs& args, WorkloadResult& result) {
  const CampaignSpec spec = make_campaign(kDesigns, kReplicas, kCorpusSeed);
  Engine engine;
  time_setup([&] { engine = Engine{}; },
             [&](int) { engine = set_up(spec, args.seed); },
             result);

  Checks checks;
  checks.fingerprints.resize(engine.jobs.size());
  checks.first.resize(engine.jobs.size());
  std::size_t next_index = 0;
  const Phase plain =
      measure(engine, args.trace ? args.seconds / 2 : args.seconds, false,
              args.clients, next_index, result.tally, checks);
  fill_untraced(plain, "run_campaign_session call (session_p50_s, "
                "session_p90_s)", result);
  Quality quality;
  Digest digest;
  for (const auto& r : checks.first)
    if (r) quality.add(*r);
  for (const std::string& f : checks.fingerprints) digest.add(f);
  quality.fill(result);
  result.digest = digest.hex();

  if (args.trace) {
    Phase traced = measure(engine, args.seconds, true, args.clients,
                           next_index, result.tally, checks);
    synthesize_pnr(traced, checks.traced);
    fill_report_layers(checks.first, checks.traced, result);
    fill_traced(plain, traced, result);
  }
}

}  // namespace bench
