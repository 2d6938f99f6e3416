#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "campaign/campaign_engine.hpp"
#include "core/tiled_baseline_cache.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace bench {

MetricSet::MetricSet(std::vector<Metric> catalogue)
    : metrics_(std::move(catalogue)) {}

void MetricSet::set(const std::string& name, double value) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      return;
    }
  throw std::logic_error("metric '" + name + "' is not in the catalogue");
}

double MetricSet::get(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return m.value;
  throw std::logic_error("metric '" + name + "' is not in the catalogue");
}

std::vector<Metric> end_to_end_catalogue() {
  return {
      {"setup_s", 0, "s"},
      {"sessions_per_s", 0, "1/s"},
      {"request_p50_s", 0, "s"},
      {"request_p90_s", 0, "s"},
      {"debug_work_units", 0, "units"},
      {"detect_frac", 0, "frac"},
      {"clean_frac", 0, "frac"},
      {"site_retained_frac", 0, "frac"},
  };
}

std::vector<Metric> per_layer_catalogue() {
  return {
      {"campaign.self_s", 0, "s"},
      {"campaign.pre_phase_s", 0, "s"},
      {"campaign.warm_build_ratio", 0, "ratio"},
      {"debug.self_s", 0, "s"},
      {"debug.inject_s", 0, "s"},
      {"debug.localize_s", 0, "s"},
      {"debug.correct_s", 0, "s"},
      {"localize.rounds", 0, "count"},
      {"localize.probes_inserted", 0, "count"},
      {"localize.probes_retargeted", 0, "count"},
      {"localize.suspects", 0, "count"},
      {"localize.narrow_ratio", 0, "ratio"},
      {"correct.attempts", 0, "count"},
      {"correct.at_site_ratio", 0, "ratio"},
      {"sim.self_s", 0, "s"},
      {"sim.detect_s", 0, "s"},
      {"sim.verify_s", 0, "s"},
      {"core.self_s", 0, "s"},
      {"core.cold_build_s", 0, "s"},
      {"core.rebase_s", 0, "s"},
      {"place.self_s", 0, "s"},
      {"place.build_ms", 0, "ms"},
      {"place.eco_ms", 0, "ms"},
      {"place.build_instances", 0, "count"},
      {"place.eco_instances", 0, "count"},
      {"route.self_s", 0, "s"},
      {"route.build_ms", 0, "ms"},
      {"route.eco_ms", 0, "ms"},
      {"route.build_nets", 0, "count"},
      {"route.eco_nets", 0, "count"},
      {"route.build_nodes", 0, "count"},
      {"route.eco_nodes", 0, "count"},
      {"route.nodes_per_net", 0, "count"},
      {"service.self_s", 0, "s"},
      {"endpoint.submit_s", 0, "s"},
      {"endpoint.wait_s", 0, "s"},
      {"endpoint.shardreport_s", 0, "s"},
      {"endpoint.wait_overshoot_s", 0, "s"},
      {"scheduler.queue_wait_s", 0, "s"},
      {"service.campaign_run_s", 0, "s"},
      {"result_cache.hit_ratio", 0, "ratio"},
      {"orchestrator.self_s", 0, "s"},
      {"orchestrator.dispatch_s", 0, "s"},
      {"orchestrator.collect_s", 0, "s"},
      {"bench.self_s", 0, "s"},
      {"obs.trace_overhead_ratio", 0, "ratio"},
  };
}

void Quality::add(const emutile::DebugSessionReport& r) {
  ++completed;
  debug_work += emutile::work_units(r.debug_effort);
  if (!r.detection.error_detected) return;
  ++detected;
  if (r.final_clean) ++clean;
  const auto& suspects = r.localization.suspects;
  if (std::find(suspects.begin(), suspects.end(), r.injected.cell) !=
      suspects.end())
    ++retained;
}

void Quality::fill(WorkloadResult& result) const {
  const auto frac = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  MetricSet& m = result.end_to_end;
  m.set("debug_work_units",
        completed == 0 ? 0.0 : debug_work / static_cast<double>(completed));
  m.set("detect_frac", frac(detected, completed));
  m.set("clean_frac", frac(clean, detected));
  m.set("site_retained_frac", frac(retained, detected));
  std::ostringstream os;
  os << "quality over " << completed << " sessions: " << detected
     << " detected, " << clean << " clean, " << retained
     << " kept the injected site in their suspects";
  result.notes.push_back(os.str());
}

std::string session_fingerprint(const emutile::SessionOutcome& o) {
  const emutile::DebugSessionReport& r = o.report;
  std::ostringstream os;
  os << "err=" << o.error << " cancelled=" << r.cancelled
     << " cell=" << r.injected.cell.value()
     << " detected=" << r.detection.error_detected
     << " fail_cycle=" << r.detection.first_fail_cycle
     << " narrowed=" << r.localization.narrowed << " suspects=";
  for (const emutile::CellId c : r.localization.suspects) os << c.value() << ",";
  os << " rounds=" << r.localization.iterations.size()
     << " corrected=" << r.correction.corrected
     << " fixed=" << r.correction.fixed_cell.value()
     << " attempts=" << r.correction.attempts << " clean=" << r.final_clean
     << " warm=" << r.warm_started << " build=" << r.build_effort.instances_placed
     << "/" << r.build_effort.nets_routed << "/" << r.build_effort.nodes_expanded
     << " debug=" << r.debug_effort.instances_placed << "/"
     << r.debug_effort.nets_routed << "/" << r.debug_effort.nodes_expanded;
  return os.str();
}

namespace {

constexpr int kSetupReps = 3;

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The spans recorded from construction on. A marker span fixes the
/// window's start on the tracer's own clock.
class TraceWindow {
 public:
  TraceWindow() {
    emutile::Tracer& tracer = emutile::Tracer::global();
    dropped_at_start_ = tracer.dropped();
    std::uint64_t marker = 0;
    {
      const emutile::ScopedSpan span(tracer, "bench.window");
      marker = span.context().span_id;
    }
    for (const emutile::TraceSpan& s : tracer.collect(false))
      if (s.span_id == marker) start_us_ = s.start_us;
  }

  /// Every closed span that started inside the window.
  [[nodiscard]] std::vector<emutile::TraceSpan> collect() const {
    std::vector<emutile::TraceSpan> out;
    for (emutile::TraceSpan& s : emutile::Tracer::global().collect(false))
      if (s.start_us >= start_us_ && s.name != "bench.window")
        out.push_back(std::move(s));
    return out;
  }

  /// Spans the tracer's bounded rings dropped since the window opened.
  [[nodiscard]] std::uint64_t dropped() const {
    return emutile::Tracer::global().dropped() - dropped_at_start_;
  }

 private:
  std::uint64_t start_us_ = 0;
  std::uint64_t dropped_at_start_ = 0;
};

/// Per-layer metrics every workload derives from its traced span forest:
/// self time per layer and per-phase means, per `requests` completed.
void fill_span_layers(const std::vector<emutile::TraceSpan>& spans,
                      std::size_t requests, WorkloadResult& result) {
  MetricSet& m = result.per_layer;
  const double per = requests == 0 ? 0.0 : 1.0 / static_cast<double>(requests);
  for (const auto& [layer, seconds] : self_time_by_layer(spans)) {
    if (layer == "other") continue;
    m.set(layer + ".self_s", seconds * per);
  }

  // Phase spans, and the stretch from a session call's start to its first
  // phase (result-cache lookup plus the shared-baseline wait).
  std::unordered_map<std::uint64_t, const emutile::TraceSpan*> by_id;
  for (const emutile::TraceSpan& s : spans) by_id[s.span_id] = &s;
  std::map<std::string, std::vector<double>> phase;
  std::unordered_map<std::uint64_t, std::uint64_t> first_phase_start;
  for (const emutile::TraceSpan& s : spans) {
    if (s.name.rfind("session.phase.", 0) != 0) continue;
    phase[s.name].push_back(static_cast<double>(s.dur_us) * 1e-6);
    auto [it, inserted] = first_phase_start.emplace(s.parent_id, s.start_us);
    if (!inserted) it->second = std::min(it->second, s.start_us);
  }
  std::vector<double> pre_phase;
  for (const auto& [parent, start] : first_phase_start) {
    const auto it = by_id.find(parent);
    if (it == by_id.end() || start < it->second->start_us) continue;
    pre_phase.push_back(static_cast<double>(start - it->second->start_us) *
                        1e-6);
  }
  m.set("campaign.pre_phase_s", mean_of(pre_phase));
  m.set("debug.inject_s", mean_of(phase["session.phase.inject"]));
  m.set("debug.localize_s", mean_of(phase["session.phase.localize"]));
  m.set("debug.correct_s", mean_of(phase["session.phase.correct"]));
  m.set("sim.detect_s", mean_of(phase["session.phase.detect"]));
  m.set("sim.verify_s", mean_of(phase["session.phase.verify"]));

  std::map<std::string, std::vector<double>> named;
  for (const emutile::TraceSpan& s : spans)
    named[s.name].push_back(static_cast<double>(s.dur_us) * 1e-6);
  m.set("endpoint.submit_s", mean_of(named["bench.submit"]));
  m.set("endpoint.wait_s", mean_of(named["bench.wait"]));
  m.set("endpoint.shardreport_s", mean_of(named["bench.shardreport"]));
  m.set("scheduler.queue_wait_s", mean_of(named["scheduler.queue_wait"]));
  m.set("service.campaign_run_s", mean_of(named["campaign.run"]));
  m.set("orchestrator.dispatch_s", mean_of(named["orchestrate.dispatch"]));

  // Per request trace: how long after the last campaign.run closed did the
  // client's WAIT return (daemon), and the coordinator's run() (fleet).
  struct Ends {
    std::uint64_t run = 0, wait = 0, request = 0;
    bool orchestrated = false;
  };
  std::unordered_map<std::uint64_t, Ends> ends;
  for (const emutile::TraceSpan& s : spans) {
    const std::uint64_t end = s.start_us + s.dur_us;
    Ends& e = ends[s.trace_id];
    if (s.name == "campaign.run") e.run = std::max(e.run, end);
    if (s.name == "bench.wait") e.wait = end;
    if (s.name == "bench.request") e.request = end;
    if (s.name == "orchestrate.run") e.orchestrated = true;
  }
  std::vector<double> overshoot, collect;
  for (const auto& [trace, e] : ends) {
    if (e.run == 0) continue;
    if (e.wait >= e.run && e.wait != 0)
      overshoot.push_back(static_cast<double>(e.wait - e.run) * 1e-6);
    if (e.orchestrated && e.request >= e.run)
      collect.push_back(static_cast<double>(e.request - e.run) * 1e-6);
  }
  m.set("endpoint.wait_overshoot_s", mean_of(overshoot));
  m.set("orchestrator.collect_s", mean_of(collect));
}

}  // namespace

Phase run_phase(std::size_t clients, double seconds, std::size_t granularity,
                bool traced, std::size_t& next_index,
                const std::function<std::optional<Sample>(std::size_t,
                                                          std::size_t)>& request) {
  std::mutex mutex;  // guards phase
  Phase phase;
  // Every phase starts from an empty tracer, free of set-up's and earlier
  // phases' spans: in-process daemons answer TRACESPANS from this tracer,
  // so its contents would otherwise weigh on fleet latency.
  emutile::Tracer::global().reset();
  std::optional<TraceWindow> window;
  if (traced) window.emplace();
  phase.wall_s = closed_loop(
      clients, seconds, min_samples_for_tail(0.9), granularity, next_index,
      [&](std::size_t i, std::size_t c) {
        const std::optional<Sample> sample = request(i, c);
        if (!sample) return;
        const std::lock_guard<std::mutex> lock(mutex);
        phase.latencies.push_back(sample->latency_s);
        phase.sessions += sample->sessions;
      });
  if (window) {
    phase.spans = window->collect();
    phase.dropped = window->dropped();
  }
  return phase;
}

void time_setup(const std::function<void()>& tear_down,
                const std::function<void(int rep)>& set_up,
                WorkloadResult& result) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tear_down();
    const auto t0 = std::chrono::steady_clock::now();
    set_up(rep);
    times.push_back(seconds_since(t0));
  }
  result.end_to_end.set("setup_s", median(times));
  std::ostringstream os;
  os << "set-up times (s):";
  for (const double t : times) os << " " << t;
  result.notes.push_back(os.str());
}

void fill_untraced(const Phase& plain, const std::string& alias,
                   WorkloadResult& result) {
  const std::size_t n = plain.latencies.size();
  result.end_to_end.set("sessions_per_s", plain.sessions_per_s());
  result.end_to_end.set("request_p50_s", percentile(plain.latencies, 0.5));
  result.end_to_end.set("request_p90_s", percentile(plain.latencies, 0.9));
  std::ostringstream os;
  os << "request = one " << alias << ": " << n << " samples, "
     << samples_beyond(n, 0.9) << " beyond p90"
     << (samples_beyond(n, 0.9) < kMinTailSamples ? " (TAIL UNSUPPORTED)" : "")
     << "; " << static_cast<double>(n) / plain.wall_s << " requests/s";
  result.notes.push_back(os.str());
}

void fill_traced(const Phase& plain, Phase& traced, WorkloadResult& result) {
  result.per_layer.set("obs.trace_overhead_ratio",
                       plain.sessions_per_s() / traced.sessions_per_s());
  fill_span_layers(traced.spans, traced.latencies.size(), result);
  if (traced.dropped > 0)
    result.notes.push_back("trace rings dropped " +
                           std::to_string(traced.dropped) + " spans");
  result.trace = std::move(traced.spans);
}

double closed_loop(std::size_t clients, double seconds,
                   std::size_t min_requests, std::size_t granularity,
                   std::size_t& next_index,
                   const std::function<void(std::size_t, std::size_t)>& request) {
  std::mutex mutex;  // guards next_index, stopped, error
  bool stopped = false;
  std::exception_ptr error;
  const std::size_t first = next_index;
  const auto t0 = std::chrono::steady_clock::now();
  const auto take = [&]() -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(mutex);
    if (stopped) return std::nullopt;
    if (next_index % granularity == 0 && next_index - first >= min_requests &&
        seconds_since(t0) >= seconds) {
      stopped = true;
      return std::nullopt;
    }
    return next_index++;
  };
  const auto worker = [&](std::size_t client) {
    while (const std::optional<std::size_t> i = take()) {
      try {
        request(*i, client);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        stopped = true;
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return seconds_since(t0);
}

DirectRun run_direct(const emutile::CampaignSpec& spec, std::size_t threads) {
  const std::vector<emutile::CampaignJob> jobs = spec.expand();
  std::vector<emutile::Netlist> goldens(spec.designs.size());
  emutile::TiledBaselineCache baselines;
  emutile::ThreadPool pool(threads);
  pool.parallel_for(spec.designs.size(), [&](std::size_t d) {
    goldens[d] = emutile::build_campaign_golden(spec, d);
  });
  DirectRun run;
  run.outcomes.resize(jobs.size());
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    run.outcomes[i] = emutile::run_campaign_session(
        spec, jobs[i], goldens[jobs[i].design_index], {}, nullptr, nullptr,
        &baselines);
  });
  run.report = emutile::build_report(spec, jobs, run.outcomes, {});
  return run;
}

emutile::CampaignSpec make_campaign(const std::vector<std::string>& designs,
                                    int replicas, std::uint64_t master_seed) {
  emutile::CampaignSpec spec;
  for (const std::string& d : designs) spec.add_catalog_design(d);
  emutile::TilingParams tiling;
  tiling.num_tiles = 6;
  tiling.target_overhead = 0.3;
  spec.tilings = {tiling};
  spec.sessions_per_scenario = replicas;
  spec.master_seed = master_seed;
  spec.num_patterns = 128;
  return spec;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace bench
