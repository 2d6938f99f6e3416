// Orchestrator tests: the fleet-config format, the mergeable shard-report
// wire format (exact round-trip + merge equivalence), and the campaign
// coordinator end-to-end — sharded orchestration over in-process serviced
// instances, re-dispatch when an instance is killed mid-campaign, a rolling
// drain-restart upgrade across the whole fleet, fleet-file membership
// reloads, the all-instances-down in-process fallback, and completion-driven
// supervision (a parked WAIT collects or re-dispatches a shard before the
// STATUS tick; no run leaks a socket).
// The load-bearing assertion throughout: the merged fleet report is
// byte-identical to a direct unsharded run_campaign of the same spec (with
// a field-by-field differential cross-check explaining any divergence).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace emutile {
namespace {

namespace fs = std::filesystem;

using test::ScratchDir;

/// A campaign big enough that a 3-shard split gives every shard real work:
/// 2 error kinds x `replicas` replicas on one design.
CampaignSpec sharded_test_spec(int replicas, std::uint64_t master_seed) {
  CampaignSpec spec;
  spec.add_catalog_design("9sym");
  spec.error_kinds = {ErrorKind::kWrongPolarity, ErrorKind::kWrongConnection};
  spec.tilings.clear();
  TilingParams tiling;
  tiling.num_tiles = 6;
  tiling.target_overhead = 0.3;
  spec.tilings.push_back(tiling);
  spec.sessions_per_scenario = replicas;
  spec.master_seed = master_seed;
  spec.num_patterns = 96;
  return spec;
}

// ------------------------------------------------------------ fleet config ---

TEST(FleetConfigIo, RoundTripsAndToleratesCommentsAndBlanks) {
  const std::string text =
      "# production fleet\n"
      "emutile-fleet v1\n"
      "\n"
      "instance alpha socket /var/emutile-a/serviced.sock\n"
      "instance gamma tcp build-host:7733\n"
      "end\n";
  const FleetConfig fleet = parse_fleet_config(text);
  ASSERT_EQ(fleet.instances.size(), 2u);
  EXPECT_EQ(fleet.instances[0].name, "alpha");
  EXPECT_EQ(fleet.instances[0].address.kind, AddressKind::kUnix);
  EXPECT_EQ(fleet.instances[0].address.path, "/var/emutile-a/serviced.sock");
  EXPECT_EQ(fleet.instances[1].name, "gamma");
  EXPECT_EQ(fleet.instances[1].address.kind, AddressKind::kTcp);
  EXPECT_EQ(fleet.instances[1].address.host, "build-host");
  EXPECT_EQ(fleet.instances[1].address.port, 7733);

  // serialize -> parse is the identity on the canonical form.
  const std::string canonical = serialize_fleet_config(fleet);
  EXPECT_EQ(serialize_fleet_config(parse_fleet_config(canonical)), canonical);
}

TEST(FleetConfigIo, MalformedInputsThrowWithContext) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(static_cast<void>(parse_fleet_config(text)), CheckError)
        << text;
  };
  reject("");                                          // no header
  reject("emutile-fleet v2\nend\n");                   // wrong version
  reject("emutile-fleet v1\n");                        // missing end
  reject("emutile-fleet v1\nend\n");                   // empty fleet
  reject("emutile-fleet v1\nhost a socket /s\nend\n");  // unknown key
  reject("emutile-fleet v1\ninstance\nend\n");          // missing name
  reject("emutile-fleet v1\ninstance a\nend\n");        // missing kind
  reject("emutile-fleet v1\ninstance a socket\nend\n");  // missing path
  reject("emutile-fleet v1\ninstance a tcp 1.2.3.4\nend\n");   // no port
  reject("emutile-fleet v1\ninstance a pigeon /coop\nend\n");  // bad kind
  reject("emutile-fleet v1\ninstance a spool /r\nend\n");     // no wire
  reject("emutile-fleet v1\ninstance a socket /s extra\nend\n");
  reject(
      "emutile-fleet v1\ninstance a socket /s\ninstance a socket /t\nend\n");
  reject("emutile-fleet v1\ninstance a socket /s\nend\nleftover\n");
  // Line numbers make config mistakes debuggable.
  try {
    static_cast<void>(parse_fleet_config(
        "emutile-fleet v1\n# comment\nfrobnicate\nend\n"));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  // An unknown kind's error names the line and the kinds that exist.
  try {
    static_cast<void>(parse_fleet_config(
        "emutile-fleet v1\ninstance a spool /r\nend\n"));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 2: unknown address kind 'spool' (socket|tcp)"),
              std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------------- shard report format ---

TEST(CampaignReportIo, ExactRoundTripThroughTheWireFormat) {
  // Baselines on: the serialized form must carry scenario baselines and the
  // accumulators' exact internal moments, not just presentation values.
  CampaignSpec spec = sharded_test_spec(2, 77);
  spec.measure_baselines = true;
  const CampaignReport original = run_campaign(spec);

  const std::string wire = serialize_campaign_report(original);
  const CampaignReport parsed = parse_campaign_report(wire);

  // Indistinguishable in presentation bytes and in re-serialized bytes.
  EXPECT_EQ(parsed.to_json(), original.to_json());
  EXPECT_EQ(parsed.to_csv(), original.to_csv());
  EXPECT_EQ(serialize_campaign_report(parsed), wire);
  EXPECT_EQ(parsed.debug_work_samples, original.debug_work_samples);
  EXPECT_EQ(parsed.cache_hits, original.cache_hits);
  EXPECT_EQ(parsed.num_threads, original.num_threads);
}

TEST(CampaignReportIo, MergeOverParsedShardsMatchesUnshardedRun) {
  // The contract the coordinator stands on: shard reports that travelled
  // the wire format merge into the exact bytes of a direct unsharded run.
  CampaignSpec spec = sharded_test_spec(3, 21);
  spec.measure_baselines = true;
  const CampaignReport full = run_campaign(spec);

  CampaignReport merged;
  for (std::size_t i = 0; i < 3; ++i) {
    const CampaignReport piece = run_campaign(spec.shard(i, 3));
    const CampaignReport parsed =
        parse_campaign_report(serialize_campaign_report(piece));
    if (i == 0)
      merged = parsed;
    else
      merged.merge(parsed);
  }
  EXPECT_EQ(merged.to_json(), full.to_json());
  EXPECT_EQ(merged.to_csv(), full.to_csv());
}

TEST(CampaignReportIo, MalformedReportsThrowWithLineNumbers) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(static_cast<void>(parse_campaign_report(text)), CheckError)
        << text;
  };
  reject("");
  reject("emutile-report v1\n");  // old version
  reject("emutile-report v2\n");  // truncated
  reject("emutile-report v2\ncampaign 1 1 0 0 1 1 1 1\n");  // truncated
  reject(
      "emutile-report v2\ncampaign banana 1 0 0 1 1 1 1\n");  // bad number
  const CampaignReport empty_report =
      run_campaign(sharded_test_spec(0, 1).shard(0, 2));
  std::string wire = serialize_campaign_report(empty_report);
  reject(wire.substr(0, wire.size() / 2));  // cut mid-stream
  // Field-order violations are rejected, not silently misread.
  reject("emutile-report v2\nbuild_work 0\n");
  try {
    static_cast<void>(
        parse_campaign_report("emutile-report v2\nwrong 1\n"));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- coordinator ---

/// One in-process "host": a SessionService plus its socket endpoint, both
/// destroyable mid-test to simulate an instance dying. `attach` replays the
/// restart side of a rolling upgrade: re-attach to the root a previous
/// incarnation left behind before serving on the same socket path.
struct InProcessInstance {
  ServiceConfig config;
  std::unique_ptr<SessionService> service;
  std::unique_ptr<ServiceEndpoint> endpoint;

  InProcessInstance(const fs::path& root, std::size_t threads,
                    bool attach = false,
                    EndpointOptions endpoint_options = {}) {
    config.root = root;
    config.num_threads = threads;
    config.snapshot_every = 0;
    service = std::make_unique<SessionService>(config);
    if (attach) static_cast<void>(service->reattach());
    endpoint = std::make_unique<ServiceEndpoint>(
        *service, root / "serviced.sock", endpoint_options);
  }

  void kill() {
    endpoint.reset();  // connections drain, socket unlinked
    service.reset();   // queued work cancelled, in-flight drained
  }

  [[nodiscard]] bool has_accepted_campaign() const {
    return service && !service->list().empty();
  }
};

TEST(CampaignCoordinator, KilledInstanceMidCampaignStillMergesByteIdentical) {
  // Three instances, three shards — then one instance dies mid-campaign.
  // The coordinator must re-dispatch its shard to a survivor and still
  // produce the exact bytes of an unsharded direct run.
  ScratchDir scratch("coord-kill");
  std::vector<std::unique_ptr<InProcessInstance>> hosts;
  FleetConfig fleet;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "host" + std::to_string(i);
    hosts.push_back(std::make_unique<InProcessInstance>(scratch.path / name,
                                                        /*threads=*/1));
    fleet.instances.push_back(
        {name,
         ServiceAddress::unix_socket(hosts.back()->endpoint->socket_path())});
  }

  // Enough sessions per shard (4 each) that the doomed instance cannot
  // finish before the kill lands: the kill fires the moment the instance
  // has accepted its shard, while sessions are still running.
  const CampaignSpec spec = sharded_test_spec(/*replicas=*/6, 2000);

  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  options.request_timeout_ms = 10'000;
  options.local_threads = 2;
  std::atomic<std::size_t> snapshots{0};
  // Work stealing may append shards for an idle survivor, so the snapshot
  // holds at least the original three, always first and in order.
  const auto expect_original_shards =
      [](const std::vector<ShardProgress>& shards) {
        ASSERT_GE(shards.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(shards[i].shard, i);
      };
  options.on_snapshot = [&](const FleetSnapshot& snap) {
    ++snapshots;
    expect_original_shards(snap.shards);
    EXPECT_EQ(snap.total_instances, 3u);
  };

  OrchestrationResult result;
  CampaignCoordinator coordinator(fleet, options);
  std::thread orchestration([&] { result = coordinator.run(spec); });

  // Kill host1 as soon as it has accepted a shard.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!hosts[1]->has_accepted_campaign() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(hosts[1]->has_accepted_campaign())
      << "host1 never received a shard";
  hosts[1]->kill();
  orchestration.join();

  EXPECT_GE(result.num_shards, 3u);
  EXPECT_EQ(result.shards.size(), result.num_shards);
  expect_original_shards(result.shards);
  EXPECT_GE(result.redispatches, 1u)
      << "the killed instance's shard must have been re-dispatched";
  EXPECT_EQ(result.local_shards, 0u)
      << "two healthy instances remained — no local fallback expected";
  EXPECT_GE(snapshots.load(), 1u);
  for (const ShardProgress& shard : result.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    EXPECT_NE(shard.instance, "host1")
        << "no shard may end on the killed instance";
  }

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
  // The differential cross-check pins divergence to a scenario row and
  // column if the byte-equality above ever regresses.
  EXPECT_EQ(test::diff_campaign_reports_csv(direct.to_csv(),
                                            result.report.to_csv()),
            "");
}

TEST(CampaignCoordinator, RollingDrainRestartKeepsMergedReportByteIdentical) {
  // A rolling upgrade across the whole fleet, one instance at a time, while
  // a campaign is in flight: drain an instance over the wire (it finishes
  // its in-flight shard), restart it re-attached to the same root and
  // socket, and move to the next. The coordinator must keep collecting from
  // draining instances, re-dispatch anything that slips, re-admit restarted
  // daemons via the PING re-probe — and the merged report must come out
  // byte-identical to an unsharded direct run.
  ScratchDir scratch("coord-rolling");
  std::vector<std::unique_ptr<InProcessInstance>> hosts;
  FleetConfig fleet;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "rhost" + std::to_string(i);
    hosts.push_back(std::make_unique<InProcessInstance>(scratch.path / name,
                                                        /*threads=*/1));
    fleet.instances.push_back(
        {name,
         ServiceAddress::unix_socket(hosts.back()->endpoint->socket_path())});
  }

  const CampaignSpec spec = sharded_test_spec(/*replicas=*/6, 9000);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  options.reprobe_interval = std::chrono::milliseconds(50);
  options.request_timeout_ms = 10'000;
  options.local_threads = 2;
  CampaignCoordinator coordinator(fleet, options);
  OrchestrationResult result;
  std::atomic<bool> run_done{false};
  std::thread orchestration([&] {
    result = coordinator.run(spec);
    run_done.store(true);
  });

  std::size_t restarted = 0;
  for (std::size_t i = 0; i < hosts.size() && !run_done.load(); ++i) {
    // Wait until this instance holds a shard, then drain it over the wire —
    // exactly what a rolling-upgrade script does.
    const auto accept_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!hosts[i]->has_accepted_campaign() && !run_done.load() &&
           std::chrono::steady_clock::now() < accept_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (run_done.load() || !hosts[i]->has_accepted_campaign()) break;

    const ServiceClient client(hosts[i]->endpoint->socket_path());
    client.drain();
    EXPECT_TRUE(hosts[i]->service->draining());

    // The draining instance finishes what it holds; give the coordinator a
    // beat to collect before the "process" exits.
    hosts[i]->service->drain();
    std::this_thread::sleep_for(options.poll_interval * 3);

    // Restart re-attached on the same root and socket: the re-probe returns
    // it to the rotation while the run is still going.
    const fs::path root = hosts[i]->config.root;
    hosts[i]->kill();
    hosts[i] = std::make_unique<InProcessInstance>(root, /*threads=*/1,
                                                   /*attach=*/true);
    EXPECT_FALSE(hosts[i]->service->draining())
        << "a restarted daemon admits work again";
    ++restarted;
  }
  orchestration.join();

  EXPECT_GE(restarted, 1u) << "the rolling upgrade never touched the fleet";
  // A restarted instance comes back idle, so work stealing may have split
  // in-flight shards for it — at least the original three exist.
  EXPECT_GE(result.num_shards, 3u);
  for (const ShardProgress& shard : result.shards)
    EXPECT_EQ(shard.state, ShardState::kDone);

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
  EXPECT_EQ(test::diff_campaign_reports_csv(direct.to_csv(),
                                            result.report.to_csv()),
            "");
}

TEST(CampaignCoordinator, WorkStealingSplitsASlowShardDeterministically) {
  // One shard, two instances: instance B starts idle, so the coordinator
  // must split A's in-flight shard and hand the second half to B — and the
  // merged report must still be byte-identical to the unsharded run (seeds
  // are (scenario, replica)-derived, never placement-derived).
  ScratchDir scratch("coord-steal");
  InProcessInstance host_a(scratch.path / "shost0", /*threads=*/1);
  InProcessInstance host_b(scratch.path / "shost1", /*threads=*/1);
  FleetConfig fleet;
  fleet.instances.push_back(
      {"shost0", ServiceAddress::unix_socket(host_a.endpoint->socket_path())});
  fleet.instances.push_back(
      {"shost1", ServiceAddress::unix_socket(host_b.endpoint->socket_path())});

  const CampaignSpec spec = sharded_test_spec(/*replicas=*/6, 3100);
  CoordinatorOptions options;
  options.num_shards = 1;  // the whole campaign lands on one instance...
  options.poll_interval = std::chrono::milliseconds(20);
  options.request_timeout_ms = 10'000;
  CampaignCoordinator coordinator(fleet, options);
  const OrchestrationResult result = coordinator.run(spec);

  // ...so the idle second instance can only get work by stealing.
  EXPECT_GE(result.steals, 1u) << "idle shost1 never stole from shost0";
  EXPECT_GE(result.num_shards, 2u) << "a steal must append a shard";
  // The victim's narrowed half re-dispatches where its cache is warm.
  EXPECT_GE(result.affinity_dispatches, 1u)
      << "the narrowed victim shard should re-dispatch by cache affinity";
  std::set<std::string> serving;
  for (const ShardProgress& shard : result.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    serving.insert(shard.instance);
  }
  EXPECT_TRUE(serving.count("shost1")) << "the stolen half must run on B";

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
  EXPECT_EQ(test::diff_campaign_reports_csv(direct.to_csv(),
                                            result.report.to_csv()),
            "");
}

TEST(CampaignCoordinator, TcpFleetSurvivesKillPlusJoinMidCampaign) {
  // The elasticity acceptance test, over real TCP loopback: a fleet of two
  // TCP instances loses one mid-campaign while a third joins through a
  // fleet-file rewrite (the SIGHUP/mtime reload path). The dead instance's
  // shard re-dispatches, the joiner enters the rotation — and the merged
  // report still matches the unsharded direct run byte for byte.
  ScratchDir scratch("coord-tcp-elastic");
  const auto tcp_instance = [&](const std::string& name) {
    EndpointOptions endpoint_options;
    endpoint_options.tcp = ServiceAddress::tcp("127.0.0.1", 0);
    auto host = std::make_unique<InProcessInstance>(
        scratch.path / name, /*threads=*/1, /*attach=*/false,
        endpoint_options);
    EXPECT_TRUE(host->endpoint->tcp_address().has_value());
    return host;
  };
  auto host_a = tcp_instance("ehost-a");
  auto host_b = tcp_instance("ehost-b");

  FleetConfig fleet;
  fleet.instances.push_back({"ehost-a", *host_a->endpoint->tcp_address()});
  fleet.instances.push_back({"ehost-b", *host_b->endpoint->tcp_address()});
  const fs::path fleet_file = scratch.path / "fleet.cfg";
  const auto write_fleet = [&](const FleetConfig& membership) {
    std::ofstream out(fleet_file, std::ios::trunc);
    out << serialize_fleet_config(membership);
  };
  write_fleet(fleet);

  const CampaignSpec spec = sharded_test_spec(/*replicas=*/6, 5150);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  options.reprobe_interval = std::chrono::milliseconds(50);
  options.request_timeout_ms = 10'000;
  options.local_threads = 2;
  options.fleet_file = fleet_file;
  CampaignCoordinator coordinator(fleet, options);
  OrchestrationResult result;
  std::thread orchestration([&] { result = coordinator.run(spec); });

  // The kill waits for ehost-a to hold a shard; the join rides the same
  // fleet-file rewrite that retires it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!host_a->has_accepted_campaign() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(host_a->has_accepted_campaign())
      << "ehost-a never received a shard over TCP";
  host_a->kill();
  auto host_c = tcp_instance("ehost-c");
  FleetConfig rewritten;
  rewritten.instances.push_back({"ehost-b", *host_b->endpoint->tcp_address()});
  rewritten.instances.push_back({"ehost-c", *host_c->endpoint->tcp_address()});
  write_fleet(rewritten);
  orchestration.join();

  EXPECT_GE(result.redispatches, 1u)
      << "the killed instance's shard must have been re-dispatched";
  EXPECT_GE(result.joined_instances, 1u)
      << "the fleet-file rewrite must have joined ehost-c mid-campaign";
  EXPECT_EQ(result.local_shards, 0u)
      << "healthy TCP instances remained — no local fallback expected";
  std::set<std::string> serving;
  for (const ShardProgress& shard : result.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    EXPECT_NE(shard.instance, "ehost-a")
        << "no shard may end on the killed instance";
    serving.insert(shard.instance);
  }

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
  EXPECT_EQ(test::diff_campaign_reports_csv(direct.to_csv(),
                                            result.report.to_csv()),
            "");
}

TEST(CampaignCoordinator, FleetFileReloadRejectsBadRewriteAndObeysFlag) {
  // During one running campaign: a malformed fleet-file rewrite is rejected
  // and the membership kept; a valid rewrite is ignored until reload_flag
  // forces the re-read, which joins the new instance. Every rewrite keeps
  // the file's mtime (written aside, back-dated, renamed over), so only the
  // flag can trigger a re-read.
  ScratchDir scratch("coord-reload");
  InProcessInstance host_a(scratch.path / "lhost0", /*threads=*/1);
  InProcessInstance host_b(scratch.path / "lhost1", /*threads=*/1);
  FleetConfig fleet;
  fleet.instances.push_back(
      {"lhost0", ServiceAddress::unix_socket(host_a.endpoint->socket_path())});
  const fs::path fleet_file = scratch.path / "fleet.cfg";
  std::ofstream(fleet_file) << serialize_fleet_config(fleet);
  const fs::file_time_type mtime = fs::last_write_time(fleet_file);
  const auto rewrite = [&](const std::string& text) {
    const fs::path aside = scratch.path / "fleet.cfg.new";
    std::ofstream(aside) << text;
    fs::last_write_time(aside, mtime);
    fs::rename(aside, fleet_file);
  };

  std::atomic<bool> reload{false};
  std::atomic<std::size_t> snapshots{0};
  std::atomic<std::size_t> active{0};  ///< healthy, non-retired instances
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  options.request_timeout_ms = 10'000;
  options.fleet_file = fleet_file;
  options.reload_flag = &reload;
  options.on_snapshot = [&](const FleetSnapshot& snap) {
    active.store(snap.healthy_instances);
    ++snapshots;
  };
  const CampaignSpec spec = sharded_test_spec(/*replicas=*/8, 7100);
  CampaignCoordinator coordinator(fleet, options);
  OrchestrationResult result;
  std::atomic<bool> run_done{false};
  std::thread orchestration([&] {
    result = coordinator.run(spec);
    run_done.store(true);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const auto wait_until = [&](const auto& condition) {
    while (!condition() && !run_done.load() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return condition();
  };
  // A snapshot streams after its tick's membership poll, so `count` more
  // snapshots reflect every reload consumed before the call.
  const auto wait_snapshots = [&](std::size_t count) {
    const std::size_t mark = snapshots.load();
    return wait_until([&] { return snapshots.load() >= mark + count; });
  };

  rewrite("emutile-fleet v1\ninstance lhost0 pigeon /coop\n");
  reload.store(true);
  ASSERT_TRUE(wait_until([&] { return !reload.load(); }) && wait_snapshots(1))
      << "the campaign ended before the malformed rewrite was re-read";
  EXPECT_EQ(active.load(), 1u) << "a bad rewrite must not retire lhost0";

  FleetConfig grown = fleet;
  grown.instances.push_back(
      {"lhost1", ServiceAddress::unix_socket(host_b.endpoint->socket_path())});
  rewrite(serialize_fleet_config(grown));
  ASSERT_TRUE(wait_snapshots(3)) << "the campaign ended too early";
  EXPECT_EQ(active.load(), 1u) << "an unchanged mtime triggered a re-read";
  reload.store(true);
  EXPECT_TRUE(wait_until([&] { return active.load() == 2u; }))
      << "reload_flag never joined lhost1";
  orchestration.join();

  EXPECT_EQ(result.joined_instances, 1u);
  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
}

TEST(CampaignCoordinator, AllInstancesDownFallsBackToInProcessExecution) {
  ScratchDir scratch("coord-down");
  FleetConfig fleet;
  fleet.instances.push_back(
      {"ghost-a", ServiceAddress::unix_socket(scratch.path / "no-such-a.sock")});
  fleet.instances.push_back(
      {"ghost-b", ServiceAddress::unix_socket(scratch.path / "no-such-b.sock")});

  const CampaignSpec spec = sharded_test_spec(2, 34);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(10);
  options.local_threads = 2;
  CampaignCoordinator coordinator(fleet, options);
  const OrchestrationResult result = coordinator.run(spec);

  EXPECT_EQ(result.num_shards, 2u);
  EXPECT_EQ(result.local_shards, 2u);
  for (const ShardProgress& shard : result.shards)
    EXPECT_EQ(shard.instance, "local");
  // No reachable instance — the fleet metrics view stays honestly empty.
  EXPECT_EQ(result.metrics_instances, 0u);
  EXPECT_TRUE(result.fleet_metrics.empty());

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
}

TEST(CampaignCoordinator, CollectsFleetMetricsAndJournalsTheRun) {
  // A healthy 2-instance fleet: after the merged report, the coordinator
  // fetches METRICS from every socket instance and merges the registries;
  // the run's journal carries dispatch/collect/fleet-metrics records.
  ScratchDir scratch("coord-metrics");
  std::vector<std::unique_ptr<InProcessInstance>> hosts;
  FleetConfig fleet;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "mhost" + std::to_string(i);
    hosts.push_back(std::make_unique<InProcessInstance>(scratch.path / name,
                                                        /*threads=*/1));
    fleet.instances.push_back(
        {name,
         ServiceAddress::unix_socket(hosts.back()->endpoint->socket_path())});
  }

  const CampaignSpec spec = sharded_test_spec(/*replicas=*/2, 4242);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  EventJournal journal(scratch.path / "events.jsonl", "coord-metrics");
  options.journal = &journal;
  CampaignCoordinator coordinator(fleet, options);
  const OrchestrationResult result = coordinator.run(spec);

  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());

  // Both instances contributed a registry, and the fleet view shows the
  // traffic the orchestration itself generated. (In-process instances share
  // one process-wide registry, so assert activity, not exact per-host sums —
  // exact merge parity is pinned down in test_obs.cpp.)
  EXPECT_EQ(result.metrics_instances, 2u);
  ASSERT_FALSE(result.fleet_metrics.empty());
  ASSERT_TRUE(result.fleet_metrics.counters.count("endpoint.requests.STATUS"));
  EXPECT_GT(result.fleet_metrics.counters.at("endpoint.requests.STATUS"), 0u);
  ASSERT_TRUE(result.fleet_metrics.counters.count("endpoint.requests.SUBMIT"));
  ASSERT_TRUE(
      result.fleet_metrics.counters.count("service.sessions_completed"));
  ASSERT_TRUE(result.fleet_metrics.histograms.count("session.wall_us"));
  EXPECT_GT(result.fleet_metrics.histograms.at("session.wall_us").count, 0u);

  std::ifstream in(scratch.path / "events.jsonl");
  std::ostringstream events_os;
  events_os << in.rdbuf();
  const std::string events = events_os.str();
  for (const char* event : {"\"event\":\"dispatch\"", "\"event\":\"collect\"",
                            "\"event\":\"fleet-metrics\""}) {
    EXPECT_NE(events.find(event), std::string::npos)
        << event << " missing from:\n" << events;
  }
  EXPECT_NE(events.find("\"instances\":2"), std::string::npos) << events;
}

TEST(CampaignCoordinator, StitchedFleetTraceIsParentCleanAcrossInstances) {
  // Three instances, three shards, one trace: the stitched fleet trace must
  // hold spans from the coordinator AND the instances under a single trace
  // id, with every parent reference resolving inside the trace (no orphans)
  // and every span id unique (the dedup contract for in-process fleets that
  // share one global tracer).
  ScratchDir scratch("coord-trace");
  Tracer::global().reset();
  std::vector<std::unique_ptr<InProcessInstance>> hosts;
  FleetConfig fleet;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "thost" + std::to_string(i);
    hosts.push_back(std::make_unique<InProcessInstance>(scratch.path / name,
                                                        /*threads=*/1));
    fleet.instances.push_back(
        {name,
         ServiceAddress::unix_socket(hosts.back()->endpoint->socket_path())});
  }

  const CampaignSpec spec = sharded_test_spec(/*replicas=*/3, 777);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  CampaignCoordinator coordinator(fleet, options);
  const OrchestrationResult result = coordinator.run(spec);

  EXPECT_EQ(result.trace_instances, 3u);
  ASSERT_TRUE(result.trace.valid());
  ASSERT_FALSE(result.fleet_trace.empty());

  std::set<std::uint64_t> ids;
  std::set<std::string> names;
  for (const TraceSpan& span : result.fleet_trace) {
    EXPECT_EQ(span.trace_id, result.trace.trace_id)
        << span.name << " belongs to a different trace";
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_TRUE(ids.insert(span.span_id).second)
        << span.name << " duplicates a span id";
    names.insert(span.name);
  }
  for (const TraceSpan& span : result.fleet_trace)
    EXPECT_TRUE(span.parent_id == 0 || ids.count(span.parent_id))
        << span.name << " has an orphan parent reference";

  // The whole causal chain is present: run -> dispatch -> request ->
  // campaign -> session.
  for (const char* expected :
       {"orchestrate.run", "orchestrate.dispatch", "endpoint.request.SUBMIT",
        "campaign.run", "session.run"}) {
    EXPECT_TRUE(names.count(expected)) << expected << " missing";
  }

  // Timestamps are sorted and the export is valid Chrome trace-event JSON.
  for (std::size_t i = 1; i < result.fleet_trace.size(); ++i)
    EXPECT_GE(result.fleet_trace[i].start_us,
              result.fleet_trace[i - 1].start_us);
  const std::string json = trace_events_json(result.fleet_trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"orchestrate.run\""), std::string::npos);
}

/// `count` in-process Unix-socket instances named <prefix>0.. and the fleet
/// config that lists them.
struct LocalFleet {
  std::vector<std::unique_ptr<InProcessInstance>> hosts;
  FleetConfig config;

  LocalFleet(const fs::path& root, const std::string& prefix, int count) {
    for (int i = 0; i < count; ++i) {
      const std::string name = prefix + std::to_string(i);
      hosts.push_back(
          std::make_unique<InProcessInstance>(root / name, /*threads=*/1));
      config.instances.push_back(
          {name,
           ServiceAddress::unix_socket(hosts.back()->endpoint->socket_path())});
    }
  }
};

/// Block until every shard has its WAIT parked on its daemon: the reactor
/// counts a WAIT when it first executes it, just before parking it.
void await_parked_waits(const MetricCounter& waits, std::uint64_t target) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (waits.value() < target) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the coordinator never parked its WAITs";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void expect_matches_direct_run(const OrchestrationResult& result,
                               const CampaignSpec& spec) {
  const CampaignReport direct = run_campaign(spec);
  EXPECT_EQ(result.report.to_json(), direct.to_json());
  EXPECT_EQ(result.report.to_csv(), direct.to_csv());
  EXPECT_EQ(test::diff_campaign_reports_csv(direct.to_csv(),
                                            result.report.to_csv()),
            "");
}

TEST(CampaignCoordinator, ShardCompletionWakesTheLoopBeforeTheTick) {
  // With a 30 s STATUS cadence the first pass only dispatches. Every shard
  // must still be collected when its parked WAIT answers, long before the
  // first tick.
  ScratchDir scratch("coord-wait-wake");
  const LocalFleet fleet(scratch.path, "whost", 3);
  const CampaignSpec spec = sharded_test_spec(/*replicas=*/3, 4100);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::seconds(30);
  options.request_timeout_ms = 10'000;
  CampaignCoordinator coordinator(fleet.config, options);

  const auto start = std::chrono::steady_clock::now();
  const OrchestrationResult result = coordinator.run(spec);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "run() waited for the STATUS tick instead of the WAITs";
  EXPECT_EQ(result.num_shards, 3u);
  EXPECT_EQ(result.redispatches, 0u);
  EXPECT_EQ(result.local_shards, 0u);
  for (const ShardProgress& shard : result.shards)
    EXPECT_EQ(shard.state, ShardState::kDone);
  expect_matches_direct_run(result, spec);
}

TEST(CampaignCoordinator, LostInstanceRedispatchesBeforeTheTick) {
  // An instance's endpoint goes away while its shard's WAIT is parked. The
  // WAIT's answer (or its dropped socket) must send the shard elsewhere at
  // once — with a 30 s STATUS cadence, waiting for the tick would blow the
  // time bound.
  ScratchDir scratch("coord-wait-lost");
  LocalFleet fleet(scratch.path, "lhost", 3);
  const CampaignSpec spec = sharded_test_spec(/*replicas=*/3, 4200);
  CoordinatorOptions options;
  options.poll_interval = std::chrono::seconds(30);
  options.request_timeout_ms = 10'000;
  CampaignCoordinator coordinator(fleet.config, options);
  const MetricCounter& waits =
      MetricsRegistry::global().counter("endpoint.requests.WAIT");
  const std::uint64_t waits_before = waits.value();

  OrchestrationResult result;
  const auto start = std::chrono::steady_clock::now();
  std::thread orchestration([&] { result = coordinator.run(spec); });
  await_parked_waits(waits, waits_before + 3);
  fleet.hosts[1]->endpoint.reset();
  orchestration.join();

  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "the lost shard waited for the STATUS tick";
  EXPECT_GE(result.redispatches, 1u)
      << "the lost instance's shard must have been re-dispatched";
  EXPECT_EQ(result.local_shards, 0u);
  for (const ShardProgress& shard : result.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    EXPECT_NE(shard.instance, "lhost1");
  }
  expect_matches_direct_run(result, spec);
}

TEST(CampaignCoordinator, RunsLeakNoSockets) {
  // Parked WAITs and persistent STATUS channels are per-run sockets: after
  // run() returns, the process holds exactly the sockets it held before —
  // for a plain run, a run that steals, and a run that re-dispatches. Only
  // sockets are counted: the in-process daemons keep each campaign's
  // journal files open. They also close their side of a connection
  // asynchronously, hence the bounded wait for the count to settle.
  using test::open_fd_count;
  const auto expect_fds_settle_at = [](std::size_t expected) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (open_fd_count("socket:") != expected &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(open_fd_count("socket:"), expected);
  };
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(20);
  options.request_timeout_ms = 10'000;

  {
    ScratchDir scratch("coord-fd-plain");
    const LocalFleet fleet(scratch.path, "phost", 3);
    CampaignCoordinator coordinator(fleet.config, options);
    const CampaignSpec spec = sharded_test_spec(/*replicas=*/2, 4300);
    const std::size_t before = open_fd_count("socket:");
    const OrchestrationResult result = coordinator.run(spec);
    expect_fds_settle_at(before);
    expect_matches_direct_run(result, spec);
  }
  {
    ScratchDir scratch("coord-fd-steal");
    const LocalFleet fleet(scratch.path, "shost", 2);
    CoordinatorOptions steal_options = options;
    steal_options.num_shards = 1;  // the idle second host must steal
    CampaignCoordinator coordinator(fleet.config, steal_options);
    const CampaignSpec spec = sharded_test_spec(/*replicas=*/6, 4400);
    const std::size_t before = open_fd_count("socket:");
    const OrchestrationResult result = coordinator.run(spec);
    EXPECT_GE(result.steals, 1u);
    expect_fds_settle_at(before);
    expect_matches_direct_run(result, spec);
  }
  {
    // Cancelling a shard's campaign under the coordinator answers its
    // parked WAIT `cancelled`; the shard is re-dispatched and the instance
    // stays up, so the daemons' own descriptors do not change.
    ScratchDir scratch("coord-fd-redispatch");
    const LocalFleet fleet(scratch.path, "rhost", 3);
    CampaignCoordinator coordinator(fleet.config, options);
    const CampaignSpec spec = sharded_test_spec(/*replicas=*/3, 4500);
    const MetricCounter& waits =
        MetricsRegistry::global().counter("endpoint.requests.WAIT");
    const std::uint64_t waits_before = waits.value();
    const std::size_t before = open_fd_count("socket:");
    OrchestrationResult result;
    std::thread orchestration([&] { result = coordinator.run(spec); });
    await_parked_waits(waits, waits_before + 3);
    SessionService& service = *fleet.hosts[1]->service;
    EXPECT_TRUE(service.cancel(service.list().front().id));
    orchestration.join();
    EXPECT_GE(result.redispatches, 1u);
    expect_fds_settle_at(before);
    expect_matches_direct_run(result, spec);
  }
}

TEST(CampaignCoordinator, FallbackDisabledThrowsWhenFleetIsDown) {
  ScratchDir scratch("coord-nofallback");
  FleetConfig fleet;
  fleet.instances.push_back(
      {"ghost", ServiceAddress::unix_socket(scratch.path / "no-such.sock")});
  CoordinatorOptions options;
  options.allow_local_fallback = false;
  CampaignCoordinator coordinator(fleet, options);
  const CampaignSpec spec = sharded_test_spec(1, 5);
  EXPECT_THROW(static_cast<void>(coordinator.run(spec)), CheckError);
}

TEST(CampaignCoordinator, RejectsAlreadyShardedSpecs) {
  FleetConfig fleet;
  fleet.instances.push_back(
      {"a", ServiceAddress::unix_socket("/nowhere.sock")});
  CampaignCoordinator coordinator(fleet, {});
  const CampaignSpec spec = sharded_test_spec(1, 3).shard(0, 2);
  EXPECT_THROW(static_cast<void>(coordinator.run(spec)), CheckError);
}

TEST(CampaignCoordinator, RejectsANonPositivePollInterval) {
  // A zero tick would poll STATUS for every in-flight shard on every pass
  // of a loop that then never sleeps.
  FleetConfig fleet;
  fleet.instances.push_back(
      {"a", ServiceAddress::unix_socket("/nowhere.sock")});
  CoordinatorOptions options;
  options.poll_interval = std::chrono::milliseconds(0);
  CampaignCoordinator coordinator(fleet, options);
  EXPECT_THROW(static_cast<void>(coordinator.run(sharded_test_spec(1, 3))),
               CheckError);
}

}  // namespace
}  // namespace emutile
