/// `daemon` workload: the real front end. One in-process SessionService
/// with nproc - 1 workers and production defaults (result cache, WAL and
/// journal on) behind its Unix-socket ServiceEndpoint; nproc - 1 client
/// threads run a closed loop of SUBMIT -> WAIT -> SHARDREPORT.
///
/// Set-up starts the daemon and fills a working set of small single-design
/// campaigns (all three error kinds x 2 sessions) cold through the front
/// end: spec persistence, baseline builds, sessions, result-cache writes
/// and WAL appends, all timed in setup_s. The timed phase resubmits
/// seed-chosen working-set specs, so the engine does little: admission,
/// intake, scheduling, result-cache reads, finalize and the parked-WAIT
/// path set the latency. Latency comes in 100 ms WAIT ticks, so fresh
/// campaigns stay out of the timed mix: any share of them put the p90 on a
/// tick boundary or inside their own queue-dependent block, and it moved by
/// 20-30% from run to run.

#include <memory>
#include <optional>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "workload.hpp"

using namespace emutile;

namespace bench {
namespace {

const std::vector<std::string> kDesigns = {"9sym", "styr",    "sand",
                                           "c499", "planet1", "c880"};
constexpr std::size_t kWorkingSet = 12;
constexpr int kReplicas = 2;
constexpr int kWaitTimeoutMs = 120'000;

CampaignSpec working_spec(std::size_t w) {
  return make_campaign({kDesigns[w % kDesigns.size()]}, kReplicas,
                       derive_seed(kCorpusSeed, w));
}

/// A running daemon plus the working set's cold reports. The endpoint is
/// declared after the service so it stops first.
struct Daemon {
  std::unique_ptr<SessionService> service;
  std::unique_ptr<ServiceEndpoint> endpoint;
  std::vector<std::string> working_text;
  std::vector<std::string> working_json;
};

struct Exchange {
  std::string state;
  CampaignReport report;
};

/// One SUBMIT -> WAIT -> SHARDREPORT request. Traced requests wrap the
/// three client calls in bench spans under one `bench.request` span, whose
/// context rides the SUBMIT so the daemon's spans join the same trace.
Exchange exchange(const ServiceClient& client, const std::string& text,
                  bool traced) {
  std::optional<ScopedSpan> request;
  if (traced) request.emplace(Tracer::global(), "bench.request");
  const auto call = [&](const char* name, const auto& fn) {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(Tracer::global(), name);
    return fn();
  };
  const std::string id = call("bench.submit", [&] {
    return client.submit(
        text, 0, "", traced ? format_traceparent(request->context()) : "");
  });
  Exchange x;
  x.state = call("bench.wait", [&] { return client.wait(id, kWaitTimeoutMs); });
  x.report = parse_campaign_report(call(
      "bench.shardreport", [&] { return client.fetch_shard_report(id); }));
  return x;
}

std::unique_ptr<Daemon> start_daemon(const RunArgs& args, int rep) {
  auto d = std::make_unique<Daemon>();
  const std::filesystem::path root =
      args.work_dir / ("d" + std::to_string(rep));
  std::filesystem::remove_all(root);
  ServiceConfig config;
  config.root = root;
  config.num_threads = args.clients;
  d->service = std::make_unique<SessionService>(config);
  d->endpoint = std::make_unique<ServiceEndpoint>(*d->service, root / "d.sock");
  for (std::size_t w = 0; w < kWorkingSet; ++w)
    d->working_text.push_back(serialize_campaign_spec(working_spec(w)));
  d->working_json.resize(kWorkingSet);
  std::size_t next = 0;
  closed_loop(args.clients, 0.0, kWorkingSet, 1, next,
              [&](std::size_t i, std::size_t) {
                const ServiceClient client(d->endpoint->socket_path());
                const Exchange x = exchange(client, d->working_text[i], false);
                if (x.state != "finished")
                  throw std::runtime_error("working-set campaign " + x.state);
                d->working_json[i] = x.report.to_json();
              });
  return d;
}

/// Resubmits working-set specs SUBMIT -> WAIT -> SHARDREPORT in a closed
/// loop; every report must equal its cold run's.
Phase measure(const Daemon& d, const RunArgs& args, double seconds,
              bool traced, std::size_t& next_index, Tally& tally) {
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (std::size_t c = 0; c < args.clients; ++c)
    clients.push_back(
        std::make_unique<ServiceClient>(d.endpoint->socket_path()));
  const auto request = [&](std::size_t i,
                           std::size_t c) -> std::optional<Sample> {
    const std::size_t w = derive_seed(args.seed, 7000 + i) % kWorkingSet;
    const auto t0 = std::chrono::steady_clock::now();
    Exchange x;
    try {
      x = exchange(*clients[c], d.working_text[w], traced);
    } catch (const ServiceError& e) {
      tally.fail(std::string("ERR reply or timeout: ") + to_string(e.code()));
      return std::nullopt;
    }
    const Sample sample{seconds_since(t0), x.report.sessions};
    if (x.state != "finished")
      tally.fail("campaign " + x.state);
    else if (x.report.failed > 0 || x.report.cancelled > 0)
      tally.fail("session failed");
    else if (x.report.to_json() != d.working_json[w])
      tally.fail("resubmitted report differs from its cold run");
    else
      tally.ok();
    return sample;
  };
  return run_phase(args.clients, seconds, 1, traced, next_index, request);
}

/// Outside the timed section: the working set's reports against direct
/// in-process runs, which also give the per-session quality figures.
void verify(const Daemon& d, const RunArgs& args, WorkloadResult& result) {
  Quality quality;
  Digest digest;
  for (std::size_t w = 0; w < kWorkingSet; ++w) {
    const DirectRun direct = run_direct(working_spec(w), args.clients);
    if (direct.report.to_json() == d.working_json[w])
      result.tally.ok();
    else
      result.tally.fail("daemon report differs from a direct run");
    for (const SessionOutcome& o : direct.outcomes)
      if (o.error.empty() && !o.report.cancelled) quality.add(o.report);
    digest.add(d.working_json[w]);
  }
  quality.fill(result);
  result.digest = digest.hex();
}

}  // namespace

void run_daemon(const RunArgs& args, WorkloadResult& result) {
  std::unique_ptr<Daemon> daemon;
  time_setup([&] { daemon.reset(); },
             [&](int rep) { daemon = start_daemon(args, rep); }, result);

  std::size_t next_index = 0;
  const Phase plain =
      measure(*daemon, args, args.trace ? args.seconds / 2 : args.seconds,
              false, next_index, result.tally);
  fill_untraced(plain,
                "SUBMIT -> WAIT -> SHARDREPORT campaign (campaign_p50_s, "
                "campaign_p90_s)",
                result);

  if (args.trace) {
    const ServiceClient client(daemon->endpoint->socket_path());
    const RemoteCacheStats before = client.cache_stats();
    Phase traced =
        measure(*daemon, args, args.seconds, true, next_index, result.tally);
    const RemoteCacheStats after = client.cache_stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    result.per_layer.set("result_cache.hit_ratio",
                         hits + misses > 0 ? hits / (hits + misses) : 0.0);
    fill_traced(plain, traced, result);
  }
  verify(*daemon, args, result);
  daemon.reset();
}

}  // namespace bench
