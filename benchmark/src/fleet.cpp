/// `fleet` workload: the only path through the coordinator. Three
/// in-process daemons with one worker each listen on TCP loopback; one
/// client runs a CampaignCoordinator with the orchestrate tool's default
/// options over a sequence of cold campaigns (9sym x 3 error kinds, one
/// session per shard, distinct master seeds). Sharding, cache-affinity
/// placement, STATUS polling (200 ms by default), collection and the merge
/// live only here.
///
/// Campaigns are sized so every shard finishes inside the first 200 ms poll
/// tick: latency then measures the coordinator (the tick plus collection)
/// and stays in one mode. With bigger campaigns or concurrent coordinators
/// the median or the p90 sits on the boundary between tick modes and jumps
/// by a whole tick from run to run.
///
/// The first kCorpusCampaigns campaigns are the fixed corpus. Between
/// set-up and the timed phase they run directly in-process, which also
/// warms the process; after the timed phase the fleet's merged reports are
/// byte-compared against those runs, whose sessions also give the quality
/// figures. Later campaigns draw their master seeds from the workload seed.
///
/// Shards of one session never qualify for work stealing
/// (min_steal_sessions is 2), and cold campaigns with distinct seeds give
/// cache-affinity placement nothing to go on, so steals, re-dispatches and
/// placement are fixed by the campaign shape and are not reported.

#include <map>
#include <memory>
#include <optional>

#include "campaign/campaign_engine.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "workload.hpp"

using namespace emutile;

namespace bench {
namespace {

const std::vector<std::string> kDesigns = {"9sym"};
constexpr std::size_t kInstances = 3;
constexpr int kReplicas = 1;
constexpr std::size_t kCorpusCampaigns = 12;

CampaignSpec fleet_spec(std::uint64_t seed, std::size_t i) {
  return make_campaign(kDesigns, kReplicas,
                       i < kCorpusCampaigns ? derive_seed(kCorpusSeed, 100 + i)
                                            : derive_seed(seed, 2000 + i));
}

/// The in-process fleet. Endpoints are declared after the services they
/// serve, so they stop first.
struct Fleet {
  std::vector<std::unique_ptr<SessionService>> services;
  std::vector<std::unique_ptr<ServiceEndpoint>> endpoints;
  FleetConfig config;
  CampaignReport first_report;  ///< merged report of corpus campaign 0
};

/// Set-up: start three daemons and serve the first corpus campaign through
/// a coordinator, so set-up ends when a fresh fleet has delivered its first
/// report. Starting the daemons alone takes 1-10 ms, a figure set by
/// thread start-up cost that differs from process to process by up to 10x.
std::unique_ptr<Fleet> start_fleet(const RunArgs& args, int rep) {
  auto f = std::make_unique<Fleet>();
  const std::filesystem::path root =
      args.work_dir / ("f" + std::to_string(rep));
  std::filesystem::remove_all(root);
  for (std::size_t i = 0; i < kInstances; ++i) {
    ServiceConfig config;
    config.root = root / ("i" + std::to_string(i));
    config.num_threads = 1;
    f->services.push_back(std::make_unique<SessionService>(config));
    EndpointOptions options;
    options.tcp = ServiceAddress::tcp("127.0.0.1", 0);
    f->endpoints.push_back(std::make_unique<ServiceEndpoint>(
        *f->services.back(), config.root / "d.sock", options));
    f->config.instances.push_back(
        {"i" + std::to_string(i), *f->endpoints.back()->tcp_address()});
  }
  CampaignCoordinator coordinator(f->config, CoordinatorOptions{});
  f->first_report = coordinator.run(fleet_spec(args.seed, 0)).report;
  return f;
}

/// One client runs coordinators back to back. Merged reports of corpus
/// campaigns go to `merged` when it is non-null (the one client thread is
/// its only writer).
Phase measure(const Fleet& f, const RunArgs& args, double seconds,
              bool traced, std::size_t& next_index, Tally& tally,
              std::map<std::size_t, CampaignReport>* merged) {
  const auto request = [&](std::size_t i,
                           std::size_t) -> std::optional<Sample> {
    const CampaignSpec spec = fleet_spec(args.seed, i);
    CoordinatorOptions options;
    std::optional<ScopedSpan> span;
    if (traced) {
      span.emplace(Tracer::global(), "bench.request");
      options.trace = span->context();
    }
    const auto t0 = std::chrono::steady_clock::now();
    OrchestrationResult result;
    try {
      CampaignCoordinator coordinator(f.config, options);
      result = coordinator.run(spec);
    } catch (const CheckError&) {
      tally.fail("coordinator run failed");
      return std::nullopt;
    }
    const Sample sample{seconds_since(t0), result.report.sessions};
    span.reset();

    if (result.local_shards > 0)
      tally.fail("shard fell back to in-process execution");
    else if (result.report.failed > 0 || result.report.cancelled > 0)
      tally.fail("session failed");
    else
      tally.ok();
    if (merged && i < kCorpusCampaigns)
      merged->emplace(i, std::move(result.report));
    return sample;
  };
  return run_phase(1, seconds, 1, traced, next_index, request);
}

/// Outside the timed section: every corpus campaign's merged fleet report
/// byte-compared (JSON and CSV) against its direct run, whose sessions give
/// the quality figures; campaign 0 also against set-up's fleet run and
/// run_campaign itself.
void verify(const Fleet& f, const RunArgs& args,
            const std::vector<DirectRun>& corpus,
            const std::map<std::size_t, CampaignReport>& merged,
            WorkloadResult& result) {
  Quality quality;
  Digest digest;
  for (std::size_t i = 0; i < kCorpusCampaigns; ++i) {
    const DirectRun& direct = corpus[i];
    for (const SessionOutcome& o : direct.outcomes)
      if (o.error.empty() && !o.report.cancelled) quality.add(o.report);
    digest.add(direct.report.to_json());
    const auto it = merged.find(i);
    if (it != merged.end() && it->second.to_json() == direct.report.to_json() &&
        it->second.to_csv() == direct.report.to_csv())
      result.tally.ok();
    else
      result.tally.fail("merged fleet report differs from a direct run");
  }
  if (f.first_report.to_json() == corpus[0].report.to_json())
    result.tally.ok();
  else
    result.tally.fail("set-up's fleet report differs from a direct run");
  CampaignOptions options;
  options.num_threads = args.clients;
  if (run_campaign(fleet_spec(args.seed, 0), options).to_json() ==
      corpus[0].report.to_json())
    result.tally.ok();
  else
    result.tally.fail("direct run differs from run_campaign");
  quality.fill(result);
  result.digest = digest.hex();
}

}  // namespace

void run_fleet(const RunArgs& args, WorkloadResult& result) {
  std::unique_ptr<Fleet> fleet;
  time_setup([&] { fleet.reset(); },
             [&](int rep) { fleet = start_fleet(args, rep); }, result);
  std::vector<DirectRun> corpus;
  for (std::size_t i = 0; i < kCorpusCampaigns; ++i)
    corpus.push_back(run_direct(fleet_spec(args.seed, i), args.clients));

  std::size_t next_index = 0;
  std::map<std::size_t, CampaignReport> merged;
  const Phase plain =
      measure(*fleet, args, args.trace ? args.seconds / 2 : args.seconds,
              false, next_index, result.tally, &merged);
  fill_untraced(plain,
                "CampaignCoordinator::run campaign (campaign_p50_s, "
                "campaign_p90_s)",
                result);

  if (args.trace) {
    Phase traced = measure(*fleet, args, args.seconds, true, next_index,
                           result.tally, nullptr);
    fill_traced(plain, traced, result);
  }
  verify(*fleet, args, corpus, merged, result);
  fleet.reset();
}

}  // namespace bench
