// Session-service tests: campaign spec IO (parse/serialize round-trip,
// malformed inputs, content hashing), the disk result cache (hit/miss/
// invalidation, report byte-equality across cached reruns), the priority/
// fair-share job scheduler, and the service itself end-to-end: spool intake,
// concurrent submissions, streamed snapshots, deterministic final reports,
// cache reuse on resubmission, and the Unix-socket endpoint.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_report_io.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "campaign/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "service/address.hpp"
#include "service/job_scheduler.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace emutile {
namespace {

namespace fs = std::filesystem;

using test::ScratchDir;

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A small single-design catalog campaign in wire format: 2 error kinds x
/// `replicas` replicas (6 sessions by default).
std::string small_spec_text(const std::string& design,
                            std::uint64_t master_seed,
                            std::size_t replicas = 3) {
  std::ostringstream os;
  os << "# test campaign\n"
     << "emutile-campaign v1\n"
     << "design " << design << "\n"
     << "error_kind wrong-polarity\n"
     << "error_kind wrong-connection\n"
     << "tiling 6 0.3 1 12 4\n"
     << "sessions_per_scenario " << replicas << "\n"
     << "master_seed " << master_seed << "\n"
     << "num_patterns 96\n"
     << "end\n";
  return os.str();
}

// ---------------------------------------------------------------- spec IO ---

TEST(CampaignSpecIo, CanonicalSerializationRoundTrips) {
  CampaignSpec spec;
  spec.add_catalog_design("9sym");
  spec.add_catalog_design("styr");
  spec.error_kinds = {ErrorKind::kLutFunction, ErrorKind::kWrongConnection};
  spec.tilings.clear();
  for (const int tiles : {6, 12}) {
    TilingParams t;
    t.num_tiles = tiles;
    t.target_overhead = 0.22;
    t.placer_effort = 0.75;
    spec.tilings.push_back(t);
  }
  spec.sessions_per_scenario = 4;
  spec.master_seed = 0xDEADBEEFull;
  spec.num_patterns = 192;
  spec.localizer.probes_per_iteration = 5;
  spec.localizer.eco.placer_effort = 0.5;
  spec.eco.max_region_expansions = 6;
  spec.measure_baselines = true;
  spec = spec.shard(1, 2);

  const std::string text = serialize_campaign_spec(spec);
  const CampaignSpec parsed = parse_campaign_spec(text);
  EXPECT_EQ(serialize_campaign_spec(parsed), text);
  EXPECT_EQ(spec_content_hash(parsed), spec_content_hash(spec));

  // The parsed spec is behaviorally identical: same jobs, same seeds.
  const auto a = spec.expand();
  const auto b = parsed.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].options.seed, b[i].options.seed);
  }
}

TEST(CampaignSpecIo, OmittedListsFallBackToDefaults) {
  const CampaignSpec parsed = parse_campaign_spec(
      "emutile-campaign v1\ndesign 9sym\nmaster_seed 7\nend\n");
  const CampaignSpec defaults;
  EXPECT_EQ(parsed.error_kinds.size(), defaults.error_kinds.size());
  ASSERT_EQ(parsed.tilings.size(), 1u);
  EXPECT_EQ(parsed.tilings[0].num_tiles, defaults.tilings[0].num_tiles);
  EXPECT_EQ(parsed.num_patterns, defaults.num_patterns);
  EXPECT_EQ(parsed.master_seed, 7u);
}

TEST(CampaignSpecIo, MalformedInputsThrowWithContext) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(static_cast<void>(parse_campaign_spec(text)), CheckError)
        << text;
  };
  reject("");                                        // no header
  reject("emutile-campaign v2\nend\n");              // wrong version
  reject("emutile-campaign v1\n");                   // missing end
  reject("emutile-campaign v1\nfrobnicate 3\nend\n");  // unknown key
  reject("emutile-campaign v1\ndesign no-such-design\nend\n");
  reject("emutile-campaign v1\nerror_kind typo\nend\n");
  reject("emutile-campaign v1\nmaster_seed banana\nend\n");
  reject("emutile-campaign v1\nmaster_seed 1\nmaster_seed 2\nend\n");
  reject("emutile-campaign v1\nmaster_seed 1 2\nend\n");  // trailing token
  reject("emutile-campaign v1\ntiling 6 0.3\nend\n");     // short tiling
  reject("emutile-campaign v1\nshard 2 2\nend\n");        // index >= count
  reject("emutile-campaign v1\nend\nleftover\n");         // trailing content
  // Line numbers make daemon-side rejections debuggable.
  try {
    static_cast<void>(parse_campaign_spec(
        "emutile-campaign v1\n# comment\nfrobnicate 3\nend\n"));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpecIo, ContentHashTracksEverySemanticField) {
  const CampaignSpec base =
      parse_campaign_spec(small_spec_text("9sym", 21));
  const std::uint64_t h0 = spec_content_hash(base);

  CampaignSpec changed = base;
  changed.master_seed = 22;
  EXPECT_NE(spec_content_hash(changed), h0);
  changed = base;
  changed.num_patterns = 97;
  EXPECT_NE(spec_content_hash(changed), h0);
  changed = base;
  changed.tilings[0].target_overhead = 0.31;
  EXPECT_NE(spec_content_hash(changed), h0);
  changed = base;
  changed.measure_baselines = true;
  EXPECT_NE(spec_content_hash(changed), h0);
  changed = base.shard(0, 2);
  EXPECT_NE(spec_content_hash(changed), h0);

  // Custom builders have no canonical form.
  CampaignSpec custom;
  custom.add_design("x", [](std::uint64_t) { return Netlist("x"); });
  EXPECT_THROW(static_cast<void>(serialize_campaign_spec(custom)),
               CheckError);
}

// ----------------------------------------------------------- result cache ---

TEST(ResultCache, StoreLoadRoundTripAndCorruptionIsAMiss) {
  ScratchDir scratch("cache-roundtrip");
  ResultCache cache(scratch.path / "cache");
  // This test exercises the disk tier directly: with the in-memory index on,
  // a corrupted disk entry would be (correctly) masked by the indexed value.
  cache.set_index_capacity(0);

  CachedSession s;
  s.error = "flow exploded:\nmulti line";
  s.detected = true;
  s.narrowed = true;
  s.clean = true;
  s.suspects = 3;
  s.iterations = 5;
  s.build_placed = 100;
  s.build_routed = 200;
  s.build_expanded = 300;
  s.debug_placed = 11;
  s.debug_routed = 22;
  s.debug_expanded = 33;
  s.design_clbs = 44;
  cache.store(77, s);
  EXPECT_EQ(cache.entries(), 1u);

  const auto loaded = cache.load(77);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->error, "flow exploded: multi line");  // newline flattened
  EXPECT_TRUE(loaded->detected);
  EXPECT_TRUE(loaded->narrowed);
  EXPECT_FALSE(loaded->corrected);
  EXPECT_TRUE(loaded->clean);
  EXPECT_EQ(loaded->suspects, 3u);
  EXPECT_EQ(loaded->iterations, 5u);
  EXPECT_EQ(loaded->debug_expanded, 33u);
  EXPECT_EQ(loaded->design_clbs, 44u);
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_FALSE(cache.load(78).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  // Corrupt entries read as misses, not crashes.
  std::ofstream(scratch.path / "cache" / "000000000000004d.session",
                std::ios::trunc)
      << "emutile-session v1\ngarbage\n";
  EXPECT_FALSE(cache.load(77).has_value());

  cache.store(77, s);
  EXPECT_TRUE(cache.load(77).has_value());
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.load(77).has_value());
}

TEST(ResultCache, ShardedIndexStaysCoherentWithDiskTier) {
  ScratchDir scratch("cache-index");
  ResultCache cache(scratch.path / "cache");

  // Spread keys across every shard (keys 0..63 cover all 16 stripes).
  const auto session_for = [](std::uint64_t key) {
    CachedSession s;
    s.detected = (key % 2) == 0;
    s.suspects = key;
    s.iterations = key * 3;
    s.design_clbs = 44 + key;
    return s;
  };
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t key = 0; key < kKeys; ++key)
    cache.store(key, session_for(key));
  EXPECT_EQ(cache.index_entries(), kKeys);
  EXPECT_EQ(cache.index_stores(), kKeys);

  // Loads are served from memory: values match what was stored, and the
  // disk files can vanish without the hot tier noticing.
  for (std::uint64_t key = 0; key < kKeys; ++key)
    fs::remove(scratch.path / "cache" /
               (format_u64_hex(key) + ".session"));
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value()) << "key " << key;
    EXPECT_EQ(loaded->suspects, key);
    EXPECT_EQ(loaded->iterations, key * 3);
    EXPECT_EQ(loaded->design_clbs, 44 + key);
  }
  EXPECT_EQ(cache.index_hits(), kKeys);
  EXPECT_EQ(cache.index_misses(), 0u);
  EXPECT_EQ(cache.hits(), kKeys);

  // A cold instance sharing the directory reads through the disk tier and
  // promotes hits into its own index: first load is an index miss + disk
  // hit, second load an index hit — same bytes both times.
  cache.clear();
  EXPECT_EQ(cache.index_entries(), 0u);
  EXPECT_FALSE(cache.load(1).has_value());  // cleared everywhere

  cache.store(9, session_for(9));
  ResultCache cold(scratch.path / "cache");
  const auto first = cold.load(9);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cold.index_misses(), 1u);
  EXPECT_EQ(cold.index_hits(), 0u);
  const auto second = cold.load(9);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cold.index_hits(), 1u);
  EXPECT_EQ(first->suspects, second->suspects);
  EXPECT_EQ(first->design_clbs, second->design_clbs);

  // Bounded shards FIFO-evict but never return wrong values: with room for
  // one entry per shard, a shard's second key evicts its first, and the
  // evicted key falls back to disk with the right bytes.
  ResultCache bounded(scratch.path / "cache-bounded");
  bounded.set_index_capacity(1);
  for (std::uint64_t key = 0; key < 32; ++key)
    bounded.store(key, session_for(key));
  EXPECT_LE(bounded.index_entries(), 16u);
  for (std::uint64_t key = 0; key < 32; ++key) {
    const auto loaded = bounded.load(key);
    ASSERT_TRUE(loaded.has_value()) << "key " << key;
    EXPECT_EQ(loaded->suspects, key);
  }
}

TEST(ResultCache, CampaignRerunsHitAndSpecChangesInvalidate) {
  ScratchDir scratch("cache-campaign");
  ResultCache cache(scratch.path / "cache");
  const CampaignSpec spec = parse_campaign_spec(small_spec_text("9sym", 21));

  CampaignOptions options;
  options.num_threads = 2;
  options.cache = &cache;
  const CampaignReport cold = run_campaign(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, spec.num_sessions());

  const CampaignReport warm = run_campaign(spec, options);
  EXPECT_EQ(warm.cache_hits, spec.num_sessions());
  EXPECT_EQ(warm.cache_misses, 0u);

  // The determinism contract survives the cache: cached and fresh runs
  // emit identical bytes.
  EXPECT_EQ(warm.to_csv(), cold.to_csv());
  EXPECT_EQ(warm.to_json(), cold.to_json());
  const CampaignReport uncached = run_campaign(spec);
  EXPECT_EQ(uncached.to_json(), cold.to_json());

  // A semantically different spec shares nothing.
  CampaignSpec changed = spec;
  changed.num_patterns = 128;
  const CampaignReport miss = run_campaign(changed, options);
  EXPECT_EQ(miss.cache_hits, 0u);
  EXPECT_EQ(miss.cache_misses, changed.num_sessions());

  // An overlapping spec (subset of the scenario matrix, same master seed
  // and knobs) reuses the shared sessions via per-session keys: seeds are
  // split-derived from (scenario, replica), so any spec covering the same
  // lattice positions shares their sessions. A shard qualifies (its jobs
  // are a slice of the original's), and so does a smaller uniform budget —
  // its replicas are a prefix of each scenario's stream.
  const CampaignReport shard_run = run_campaign(spec.shard(0, 2), options);
  EXPECT_EQ(shard_run.cache_hits, shard_run.sessions);
  EXPECT_EQ(shard_run.cache_misses, 0u);
  CampaignSpec fewer = spec;
  fewer.sessions_per_scenario = 2;  // prefix of the 3-replica streams
  const CampaignReport prefix_run = run_campaign(fewer, options);
  EXPECT_EQ(prefix_run.cache_hits, prefix_run.sessions);
  EXPECT_EQ(prefix_run.cache_misses, 0u);
}

TEST(ResultCache, SizeBoundEvictsOldestMtimeFirst) {
  ScratchDir scratch("cache-evict");
  ResultCache cache(scratch.path / "cache");
  // Disk-eviction semantics: bypass the in-memory index so loads observe
  // what the bound actually kept on disk.
  cache.set_index_capacity(0);
  CachedSession s;
  s.detected = true;

  // Four entries with strictly increasing, explicitly-set mtimes (the clock
  // alone can't be trusted to tick between stores).
  const auto entry = [&](std::uint64_t key) {
    return scratch.path / "cache" / (format_u64_hex(key) + ".session");
  };
  std::size_t entry_bytes = 0;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    cache.store(key, s);
    entry_bytes = fs::file_size(entry(key));
    fs::last_write_time(entry(key),
                        fs::file_time_type::clock::now() +
                            std::chrono::seconds(static_cast<int>(key)));
  }
  ASSERT_GT(entry_bytes, 0u);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);  // unbounded so far

  // Bound to two entries' worth: the two oldest (keys 1, 2) must go, the
  // two newest stay.
  cache.set_max_bytes(2 * entry_bytes);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_LE(cache.bytes(), 2 * entry_bytes);
  EXPECT_FALSE(cache.load(1).has_value());
  EXPECT_FALSE(cache.load(2).has_value());
  EXPECT_TRUE(cache.load(3).has_value());
  EXPECT_TRUE(cache.load(4).has_value());

  // A store that overflows the bound prunes the oldest survivor; the entry
  // just stored is the newest and survives.
  fs::last_write_time(entry(3), fs::file_time_type::clock::now() -
                                    std::chrono::hours(1));
  fs::last_write_time(entry(4), fs::file_time_type::clock::now() -
                                    std::chrono::minutes(30));
  cache.store(5, s);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_FALSE(cache.load(3).has_value());
  EXPECT_TRUE(cache.load(5).has_value());

  // max_bytes() reads back; 0 disables eviction again.
  EXPECT_EQ(cache.max_bytes(), 2 * entry_bytes);
  cache.set_max_bytes(0);
  cache.store(6, s);
  cache.store(7, s);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 3u);
}

// ---------------------------------------------------------- job scheduler ---

TEST(JobScheduler, FairlyInterleavesEqualPriorityStreams) {
  JobScheduler scheduler(1);  // single worker => observable total order
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;

  const auto blocker = [&](bool) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  const auto stream_a = scheduler.open_stream(0);
  const auto stream_b = scheduler.open_stream(0);
  scheduler.submit(stream_a, blocker);  // hold the worker while we queue up
  for (int i = 0; i < 4; ++i) {
    scheduler.submit(stream_a, [&](bool) {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(0);
    });
    scheduler.submit(stream_b, [&](bool) {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(1);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  scheduler.wait_all();

  ASSERT_EQ(order.size(), 8u);
  // Fair share: within any prefix, the two streams' counts differ by <= 1.
  int count[2] = {0, 0};
  for (const int stream : order) {
    ++count[stream];
    EXPECT_LE(std::abs(count[0] - count[1]), 1)
        << "streams must interleave fairly";
  }
}

TEST(JobScheduler, HigherPriorityPreemptsQueuedWork) {
  JobScheduler scheduler(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<char> order;

  const auto low = scheduler.open_stream(0);
  const auto high = scheduler.open_stream(5);
  scheduler.submit(low, [&](bool) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 3; ++i)
    scheduler.submit(low, [&](bool) {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back('l');
    });
  for (int i = 0; i < 3; ++i)
    scheduler.submit(high, [&](bool) {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back('h');
    });
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  scheduler.wait_all();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(std::string(order.begin(), order.begin() + 3), "hhh")
      << "queued high-priority units must run before queued low-priority "
         "ones";
}

TEST(JobScheduler, CancelledStreamsStillRunUnitsWithTheFlag) {
  JobScheduler scheduler(2);
  const auto stream = scheduler.open_stream(0);
  std::atomic<int> ran{0};
  std::atomic<int> cancelled{0};
  scheduler.cancel(stream);
  for (int i = 0; i < 5; ++i)
    scheduler.submit(stream, [&](bool unit_cancelled) {
      ++ran;
      if (unit_cancelled) ++cancelled;
    });
  scheduler.wait(stream);
  EXPECT_EQ(ran.load(), 5) << "cancellation must never drop units silently";
  EXPECT_EQ(cancelled.load(), 5);
  EXPECT_TRUE(scheduler.is_cancelled(stream));
}

// ---------------------------------------------------------------- service ---

/// Extract the first `"sessions": N` value of a report JSON.
std::size_t sessions_in_json(const std::string& json) {
  const std::string needle = "\"sessions\": ";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos);
  return static_cast<std::size_t>(
      std::strtoull(json.c_str() + at + needle.size(), nullptr, 10));
}

std::vector<fs::path> sorted_snapshots(const fs::path& out_dir) {
  std::vector<fs::path> snapshots;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    if (entry.path().filename().string().rfind("snapshot-", 0) == 0)
      snapshots.push_back(entry.path());
  }
  std::sort(snapshots.begin(), snapshots.end());
  return snapshots;
}

TEST(SessionService, ServesConcurrentCampaignsDeterministicallyEndToEnd) {
  ScratchDir scratch("service-e2e");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 2;  // 6 sessions => snapshots at 2 and 4
  const std::string text_a = small_spec_text("9sym", 21);
  const std::string text_b = small_spec_text("styr", 34);

  std::string id_a, id_b, id_a2;
  {
    SessionService service(config);
    id_a = service.submit_text(text_a, 0, "alpha");
    id_b = service.submit_text(text_b, 1, "beta");
    EXPECT_NE(id_a, id_b);
    service.drain();

    for (const std::string& id : {id_a, id_b}) {
      const auto status = service.status(id);
      ASSERT_TRUE(status.has_value());
      EXPECT_EQ(status->state, CampaignState::kFinished) << status->error;
      EXPECT_EQ(status->sessions_done, 6u);
      EXPECT_GE(status->snapshots, 2u)
          << "the service must stream intermediate snapshots";
    }

    // Resubmitting a spec reuses the session cache: >= 90% of sessions are
    // served without re-running (here: all of them).
    id_a2 = service.submit_text(text_a, 0, "alpha-again");
    service.wait(id_a2);
    const auto again = service.status(id_a2);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->state, CampaignState::kFinished);
    EXPECT_GE(again->cache_hits * 10, again->sessions_done * 9)
        << "resubmission must reuse >=90% of sessions from the cache";
    EXPECT_EQ(again->cache_hits, 6u);
  }

  // Final reports are byte-identical to direct run_campaign runs of the
  // same specs — the determinism contract across the serving layer, cache
  // included.
  const CampaignReport direct_a = run_campaign(parse_campaign_spec(text_a));
  const CampaignReport direct_b = run_campaign(parse_campaign_spec(text_b));
  const fs::path out = scratch.path / "out";
  EXPECT_EQ(read_file(out / id_a / "report.json"), direct_a.to_json());
  EXPECT_EQ(read_file(out / id_a / "report.csv"), direct_a.to_csv());
  EXPECT_EQ(read_file(out / id_b / "report.json"), direct_b.to_json());
  EXPECT_EQ(read_file(out / id_b / "report.csv"), direct_b.to_csv());
  EXPECT_EQ(read_file(out / id_a2 / "report.json"), direct_a.to_json())
      << "a cache-served campaign must emit identical bytes";

  // Snapshots stream monotonically growing partial aggregates.
  for (const std::string& id : {id_a, id_b}) {
    const std::vector<fs::path> snapshots = sorted_snapshots(out / id);
    ASSERT_GE(snapshots.size(), 2u);
    std::size_t prev = 0;
    for (const fs::path& snapshot : snapshots) {
      const std::size_t sessions = sessions_in_json(read_file(snapshot));
      EXPECT_GE(sessions, prev) << snapshot;
      EXPECT_LT(sessions, 6u) << "snapshots are strictly partial";
      prev = sessions;
    }
  }
  // The canonical spec was persisted alongside the results.
  EXPECT_EQ(read_file(out / id_a / "spec.txt"),
            serialize_campaign_spec(parse_campaign_spec(text_a)));
}

TEST(SessionService, ShardedBaselinesMatchDirectRunCampaign) {
  // A sharded spec with measure_baselines must leave unassigned
  // (design, tiling) pairs unmeasured exactly as run_campaign does, so the
  // service's report stays byte-identical to a direct run of the same
  // sharded spec and a fleet of shards measures each pair once.
  std::ostringstream os;
  os << "emutile-campaign v1\n"
     << "design 9sym\n"
     << "error_kind wrong-polarity\n"
     << "tiling 6 0.3 1 12 4\n"
     << "tiling 8 0.3 1 12 4\n"
     << "sessions_per_scenario 1\n"
     << "master_seed 77\n"
     << "num_patterns 96\n"
     << "measure_baselines 1\n"
     << "shard 1 2\n"
     << "end\n";
  const std::string text = os.str();

  ScratchDir scratch("service-shard");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  config.enable_cache = false;  // compare two fresh runs
  std::string id;
  {
    SessionService service(config);
    id = service.submit_text(text, 0, "shard1");
    service.wait(id);
    const auto status = service.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kFinished) << status->error;
  }
  const CampaignReport direct = run_campaign(parse_campaign_spec(text));
  EXPECT_EQ(read_file(scratch.path / "out" / id / "report.json"),
            direct.to_json());
  EXPECT_EQ(read_file(scratch.path / "out" / id / "report.csv"),
            direct.to_csv());
}

TEST(SessionService, SpoolIntakeAcceptsValidAndRejectsMalformedSpecs) {
  ScratchDir scratch("service-spool");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;  // final report only
  SessionService service(config);

  EXPECT_EQ(service.poll_spool(), 0u);  // empty spool is fine

  std::ofstream(scratch.path / "spool" / "good.spec")
      << small_spec_text("9sym", 5);
  std::ofstream(scratch.path / "spool" / "bad.spec") << "not a spec\n";
  std::ofstream(scratch.path / "spool" / "ignored.txt") << "not .spec\n";

  EXPECT_EQ(service.poll_spool(), 1u);
  service.drain();

  const std::vector<CampaignStatus> all = service.list();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].state, CampaignState::kFinished) << all[0].error;
  EXPECT_EQ(all[0].id.rfind("good-", 0), 0u) << all[0].id;
  EXPECT_TRUE(fs::exists(all[0].out_dir / "report.json"));

  // Accepted specs are archived, malformed ones rejected with a reason.
  EXPECT_FALSE(fs::exists(scratch.path / "spool" / "good.spec"));
  EXPECT_TRUE(fs::exists(scratch.path / "spool" / "archive" / "good.spec"));
  EXPECT_TRUE(fs::exists(scratch.path / "spool" / "rejected" / "bad.spec"));
  const std::string reason =
      read_file(scratch.path / "spool" / "rejected" / "bad.error");
  EXPECT_NE(reason.find("emutile-campaign"), std::string::npos) << reason;
  EXPECT_TRUE(fs::exists(scratch.path / "spool" / "ignored.txt"));
  EXPECT_EQ(service.poll_spool(), 0u) << "spool files are consumed once";
}

TEST(SessionService, CancelStopsACampaignAndAccountsForEverySession) {
  ScratchDir scratch("service-cancel");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 1;
  SessionService service(config);

  // Plenty of sessions so cancellation lands mid-campaign.
  std::ostringstream spec;
  spec << "emutile-campaign v1\ndesign 9sym\nerror_kind wrong-polarity\n"
       << "tiling 6 0.3 1 12 4\nsessions_per_scenario 12\nmaster_seed 3\n"
       << "num_patterns 96\nend\n";
  const std::string id = service.submit_text(spec.str(), 0, "doomed");
  EXPECT_TRUE(service.cancel(id));
  EXPECT_FALSE(service.cancel("no-such-campaign"));
  service.wait(id);

  const auto status = service.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, CampaignState::kCancelled);
  EXPECT_EQ(status->sessions_done, status->sessions_total)
      << "every session must be accounted for, cancelled or not";
  // The report still exists and counts the cancelled sessions.
  const std::string json = read_file(status->out_dir / "report.json");
  EXPECT_NE(json.find("\"cancelled\": "), std::string::npos);
}

TEST(SessionService, EndpointSpeaksTheLineProtocol) {
  ScratchDir scratch("service-socket");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "PING\n"), "OK pong\n");
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "BOGUS\n"),
            "ERR unknown command 'BOGUS'\n");
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "STATUS nope\n"),
            "ERR unknown campaign 'nope'\n");

  // One-session campaign over the socket.
  std::ostringstream request;
  request << "SUBMIT 0 sock\n"
          << "emutile-campaign v1\ndesign 9sym\nerror_kind wrong-polarity\n"
          << "tiling 6 0.3 1 12 4\nsessions_per_scenario 1\nmaster_seed 8\n"
          << "num_patterns 96\nend\n";
  const std::string submitted =
      endpoint_request(endpoint.socket_path(), request.str());
  ASSERT_EQ(submitted.rfind("OK sock-", 0), 0u) << submitted;
  const std::string id = submitted.substr(3, submitted.find('\n') - 3);

  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "WAIT " + id + "\n"),
            "OK finished\n");
  const std::string status =
      endpoint_request(endpoint.socket_path(), "STATUS " + id + "\n");
  EXPECT_NE(status.find("finished 1/1"), std::string::npos) << status;
  const std::string list = endpoint_request(endpoint.socket_path(), "LIST\n");
  EXPECT_EQ(list.rfind("OK 1\n", 0), 0u) << list;
  EXPECT_NE(list.find(id), std::string::npos) << list;

  // Malformed submissions answer ERR without wedging the daemon.
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "SUBMIT 0 bad\njunk\n")
                .rfind("ERR ", 0),
            0u);

  EXPECT_FALSE(endpoint.shutdown_requested());
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "SHUTDOWN\n"),
            "OK bye\n");
  EXPECT_TRUE(endpoint.shutdown_requested());
}

TEST(SessionService, ShardReportAndCacheCommandsServeTheCoordinator) {
  ScratchDir scratch("service-shardreport");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");
  const std::string text = small_spec_text("9sym", 13);

  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "SHARDREPORT nope\n"),
            "ERR unknown campaign 'nope'\n");

  const std::string id = service.submit_text(text, 0, "shardy");
  service.wait(id);

  // The mergeable form comes back over the wire and parses to the exact
  // presentation bytes of a direct run of the same spec.
  const std::string response =
      endpoint_request(endpoint.socket_path(), "SHARDREPORT " + id + "\n");
  ASSERT_EQ(response.rfind("OK " + id + "\n", 0), 0u) << response;
  const CampaignReport fetched =
      parse_campaign_report(response.substr(response.find('\n') + 1));
  const CampaignReport direct = run_campaign(parse_campaign_spec(text));
  EXPECT_EQ(fetched.to_json(), direct.to_json());
  EXPECT_EQ(fetched.to_csv(), direct.to_csv());

  // CACHE reports entry count, bytes, and hit/miss counters since start.
  const std::string cache =
      endpoint_request(endpoint.socket_path(), "CACHE\n");
  ASSERT_EQ(cache.rfind("OK entries=", 0), 0u) << cache;
  std::size_t entries = 0, bytes = 0, hits = 0, misses = 0, stores = 0;
  ASSERT_EQ(std::sscanf(cache.c_str(),
                        "OK entries=%zu bytes=%zu hits=%zu misses=%zu "
                        "stores=%zu",
                        &entries, &bytes, &hits, &misses, &stores),
            5)
      << cache;
  EXPECT_EQ(entries, 6u);  // six sessions memoized
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(misses, 6u);
  EXPECT_EQ(stores, 6u);

  // A cache-disabled daemon answers ERR rather than inventing numbers.
  ServiceConfig no_cache = config;
  no_cache.root = scratch.path / "nocache";
  no_cache.enable_cache = false;
  SessionService uncached(no_cache);
  ServiceEndpoint uncached_endpoint(uncached,
                                    no_cache.root / "serviced.sock");
  EXPECT_EQ(endpoint_request(uncached_endpoint.socket_path(), "CACHE\n")
                .rfind("ERR ", 0),
            0u);
}

TEST(SessionService, BoundedSubmitQueueRejectsWithBusy) {
  ScratchDir scratch("service-busy");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 1;
  config.snapshot_every = 0;
  config.max_pending = 1;  // one campaign in flight at a time
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  // Occupy the single queue slot with a slow campaign.
  std::ostringstream slow;
  slow << "emutile-campaign v1\ndesign 9sym\nerror_kind wrong-polarity\n"
       << "tiling 6 0.3 1 12 4\nsessions_per_scenario 12\nmaster_seed 9\n"
       << "num_patterns 96\nend\n";
  const std::string id = service.submit_text(slow.str(), 0, "hog");

  // Direct API: ServiceBusyError; the spec was not accepted.
  EXPECT_THROW(
      static_cast<void>(service.submit_text(small_spec_text("9sym", 1))),
      ServiceBusyError);

  // Wire protocol: a distinguished `ERR busy` first token.
  std::ostringstream request;
  request << "SUBMIT 0 rejected\n" << small_spec_text("9sym", 2);
  const std::string response =
      endpoint_request(endpoint.socket_path(), request.str());
  EXPECT_EQ(response.rfind("ERR busy", 0), 0u) << response;
  EXPECT_EQ(service.list().size(), 1u)
      << "the rejected spec must not occupy a campaign slot";

  // Spool intake during busy leaves the spec in place for the next poll —
  // busy means "later", never "rejected".
  std::ofstream(scratch.path / "spool" / "patient.spec")
      << small_spec_text("9sym", 4);
  EXPECT_EQ(service.poll_spool(), 0u);
  EXPECT_TRUE(fs::exists(scratch.path / "spool" / "patient.spec"))
      << "a busy queue must not consume or reject spooled specs";
  EXPECT_FALSE(fs::exists(scratch.path / "spool" / "rejected" /
                          "patient.spec"));

  // Once the hog drains, the queue accepts again.
  service.wait(id);
  EXPECT_EQ(service.poll_spool(), 1u)
      << "the retained spool spec must be accepted after the queue drains";
  EXPECT_TRUE(
      fs::exists(scratch.path / "spool" / "archive" / "patient.spec"));
  service.drain();  // free the single slot again
  const std::string ok_id = service.submit_text(small_spec_text("9sym", 3));
  service.wait(ok_id);
  const auto status = service.status(ok_id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, CampaignState::kFinished) << status->error;
}

TEST(SessionService, QosAdmissionShedsOverQuotaAndPastDeadlineSubmits) {
  ScratchDir scratch("service-qos");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  config.session_quota = 4;  // small_spec_text expands to 6 sessions
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");
  const ServiceClient client(endpoint.socket_path());

  // Over-quota specs are shed up front: ServiceBusyError on the direct API,
  // a distinguished `ERR busy` first token on the wire, ServiceError{kBusy}
  // from the typed client — and no campaign slot consumed.
  EXPECT_THROW(
      static_cast<void>(service.submit_text(small_spec_text("9sym", 1))),
      ServiceBusyError);
  std::ostringstream over_quota;
  over_quota << "SUBMIT 0 hefty\n" << small_spec_text("9sym", 2);
  const std::string response =
      endpoint_request(endpoint.socket_path(), over_quota.str());
  EXPECT_EQ(response.rfind("ERR busy", 0), 0u) << response;
  try {
    static_cast<void>(client.submit(small_spec_text("9sym", 2)));
    FAIL() << "expected ServiceError{kBusy}";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kBusy) << e.what();
  }
  EXPECT_EQ(service.list().size(), 0u);

  // A within-quota spec sails through and its report stays byte-identical
  // to a direct run — admission must never perturb accepted work.
  std::ostringstream small;
  small << "emutile-campaign v1\ndesign 9sym\nerror_kind wrong-polarity\n"
        << "tiling 6 0.3 1 12 4\nsessions_per_scenario 1\nmaster_seed 8\n"
        << "num_patterns 96\nend\n";
  const std::string ok_id = client.submit(small.str(), 0, "fits");
  EXPECT_EQ(client.wait(ok_id), "finished");

  // Deadline admission engages once >= 20 session-wall samples exist. Prime
  // the histogram with absurdly slow sessions so any sane deadline is
  // infeasible for a multi-session spec.
  MetricHistogram& wall =
      MetricsRegistry::global().histogram("session.wall_us");
  for (int i = 0; i < 24; ++i) wall.record(60'000'000);  // "a minute each"
  EXPECT_THROW(static_cast<void>(service.submit_text(
                   small.str(), 0, "", TraceContext{}, /*deadline_ms=*/1)),
               ServiceOverdeadlineError);
  std::ostringstream hopeless;
  hopeless << "SUBMIT 0 hopeless deadline_ms=1\n" << small.str();
  const std::string shed =
      endpoint_request(endpoint.socket_path(), hopeless.str());
  EXPECT_EQ(shed.rfind("ERR overdeadline", 0), 0u) << shed;
  try {
    static_cast<void>(client.submit(small.str(), 0, "hopeless", "", 1));
    FAIL() << "expected ServiceError{kOverdeadline}";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kOverdeadline) << e.what();
  }
  // A generous deadline is feasible even with the slow history.
  const std::string in_time =
      client.submit(small.str(), 0, "in-time", "", 3'600'000);
  EXPECT_EQ(client.wait(in_time), "finished");
  // Malformed deadline tokens answer ERR instead of being ignored.
  std::ostringstream garbled;
  garbled << "SUBMIT 0 x deadline_ms=soon\n" << small.str();
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), garbled.str())
                .rfind("ERR ", 0),
            0u);

  // Shed SUBMITs are observable, and accepted work stays byte-identical.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const auto quota_it = snap.counters.find("service.sheds_quota");
  ASSERT_NE(quota_it, snap.counters.end());
  EXPECT_GE(quota_it->second, 3u);  // direct + wire + typed client
  const auto deadline_it = snap.counters.find("service.sheds_overdeadline");
  ASSERT_NE(deadline_it, snap.counters.end());
  EXPECT_GE(deadline_it->second, 3u);
  const CampaignReport direct = run_campaign(parse_campaign_spec(small.str()));
  EXPECT_EQ(read_file(scratch.path / "out" / ok_id / "report.json"),
            direct.to_json());
  EXPECT_EQ(read_file(scratch.path / "out" / in_time / "report.json"),
            direct.to_json());
}

TEST(SessionService, ReactorAndLegacyEndpointsAreByteIdenticalOnTheWire) {
  const std::string text = small_spec_text("9sym", 47);
  std::array<std::string, 2> reports_json;
  std::array<std::string, 2> reports_csv;
  std::array<std::string, 2> waits;
  for (const EndpointMode mode :
       {EndpointMode::kReactor, EndpointMode::kThreadPerConnection}) {
    const bool reactor = mode == EndpointMode::kReactor;
    ScratchDir scratch(reactor ? "service-ab-reactor" : "service-ab-legacy");
    ServiceConfig config;
    config.root = scratch.path;
    config.num_threads = 2;
    config.snapshot_every = 0;
    SessionService service(config);
    EndpointOptions options;
    options.mode = mode;
    ServiceEndpoint endpoint(service, scratch.path / "serviced.sock",
                             options);
    EXPECT_EQ(endpoint.mode(), mode);

    // Identical command surface in both modes.
    EXPECT_EQ(endpoint_request(endpoint.socket_path(), "PING\n"),
              "OK pong\n");
    EXPECT_EQ(endpoint_request(endpoint.socket_path(), "BOGUS\n"),
              "ERR unknown command 'BOGUS'\n");
    EXPECT_EQ(endpoint_request(endpoint.socket_path(), "WAIT\n"),
              "ERR WAIT needs a campaign id\n");
    EXPECT_EQ(endpoint_request(endpoint.socket_path(), "STATUS nope\n"),
              "ERR unknown campaign 'nope'\n");

    std::ostringstream request;
    request << "SUBMIT 0 ab\n" << text;
    const std::string submitted =
        endpoint_request(endpoint.socket_path(), request.str());
    ASSERT_EQ(submitted.rfind("OK ab-", 0), 0u) << submitted;
    const std::string id = submitted.substr(3, submitted.find('\n') - 3);
    const std::size_t slot = reactor ? 0 : 1;
    waits[slot] =
        endpoint_request(endpoint.socket_path(), "WAIT " + id + "\n");
    reports_json[slot] = read_file(scratch.path / "out" / id / "report.json");
    reports_csv[slot] = read_file(scratch.path / "out" / id / "report.csv");
  }
  EXPECT_EQ(waits[0], "OK finished\n");
  EXPECT_EQ(waits[0], waits[1]);
  EXPECT_EQ(reports_json[0], reports_json[1])
      << "the endpoint mode must never leak into campaign results";
  EXPECT_EQ(reports_csv[0], reports_csv[1]);
  const CampaignReport direct = run_campaign(parse_campaign_spec(text));
  EXPECT_EQ(reports_json[0], direct.to_json());
}

TEST(SessionService, ReactorServesManyConcurrentClientsAndParkedWaits) {
  ScratchDir scratch("service-reactor-many");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  EndpointOptions options;
  options.workers = 2;  // far fewer workers than concurrent WAITs: parking
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock", options);

  const std::string id =
      service.submit_text(small_spec_text("9sym", 19), 0, "awaited");

  // 24 clients WAIT on the campaign while 24 more hammer PING/LIST — with
  // 2 workers this only completes if WAITs park instead of pinning workers.
  std::atomic<int> wait_ok{0};
  std::atomic<int> ping_ok{0};
  std::vector<std::thread> clients;
  clients.reserve(48);
  for (int i = 0; i < 24; ++i)
    clients.emplace_back([&] {
      if (endpoint_request(endpoint.socket_path(), "WAIT " + id + "\n") ==
          "OK finished\n")
        wait_ok.fetch_add(1);
    });
  for (int i = 0; i < 24; ++i)
    clients.emplace_back([&] {
      for (int j = 0; j < 8; ++j)
        if (endpoint_request(endpoint.socket_path(), "PING\n") ==
            "OK pong\n")
          ping_ok.fetch_add(1);
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wait_ok.load(), 24);
  EXPECT_EQ(ping_ok.load(), 24 * 8);
}

/// Spin until `done()` holds; fails the test after 10 s.
template <typename Pred>
void wait_until(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "condition never held";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A WAIT sent on its own thread: the reply (or the client's error) and the
/// instant it arrived.
struct AsyncWait {
  std::string reply;
  std::chrono::steady_clock::time_point replied{};
  std::thread client;

  AsyncWait(const fs::path& socket, const std::string& id) {
    client = std::thread([this, socket, id] {
      try {
        reply = endpoint_request(socket, "WAIT " + id + "\n", 10'000);
      } catch (const std::exception& e) {
        reply = std::string("client error: ") + e.what();
      }
      replied = std::chrono::steady_clock::now();
    });
  }
  ~AsyncWait() {
    if (client.joinable()) client.join();
  }
  AsyncWait(const AsyncWait&) = delete;
  AsyncWait& operator=(const AsyncWait&) = delete;
};

TEST(SessionService, ReactorWaitNeverLosesATerminalNotification) {
  // Cached resubmits finish within milliseconds, so most WAITs race the
  // terminal transition: some probe it already terminal, others park just
  // before or after the notification. Nothing re-polls a parked WAIT, so a
  // lost notification would hang its client until the 10 s timeout.
  ScratchDir scratch("service-wait-race");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");
  const std::string submit = "SUBMIT 0 again\n" + small_spec_text("9sym", 53);
  for (int i = 0; i < 200; ++i) {
    const std::string submitted =
        endpoint_request(endpoint.socket_path(), submit, 10'000);
    ASSERT_EQ(submitted.rfind("OK again-", 0), 0u) << submitted;
    const std::string id = submitted.substr(3, submitted.find('\n') - 3);
    EXPECT_EQ(
        endpoint_request(endpoint.socket_path(), "WAIT " + id + "\n", 10'000),
        "OK finished\n")
        << "campaign " << i;
  }
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GT(service.cache()->hits(), 0u);
}

TEST(SessionService, ReactorWaitRepliesOnTheTerminalTransition) {
  // A parked WAIT is answered as soon as its campaign turns terminal, not
  // on some later tick. Each campaign is far too long to finish by itself;
  // the test parks a WAIT on it, cancels it, and measures from the moment
  // the in-process wait() returns to the moment the WAIT reply arrives.
  ScratchDir scratch("service-wait-prompt");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");
  const MetricCounter& waits =
      MetricsRegistry::global().counter("endpoint.requests.WAIT");
  std::vector<double> gaps_ms;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::string id =
        service.submit_text(small_spec_text("9sym", 500 + i, 50), 0, "prompt");
    const std::uint64_t before = waits.value();
    AsyncWait wait(endpoint.socket_path(), id);
    wait_until([&] { return waits.value() > before; });  // parked
    ASSERT_TRUE(service.cancel(id));
    service.wait(id);
    const auto terminal = std::chrono::steady_clock::now();
    wait.client.join();
    EXPECT_EQ(wait.reply, "OK cancelled\n");
    gaps_ms.push_back(std::chrono::duration<double, std::milli>(
                          wait.replied - terminal)
                          .count());
  }
  std::sort(gaps_ms.begin(), gaps_ms.end());
  EXPECT_LT(gaps_ms[gaps_ms.size() / 2], 50.0)
      << "median terminal-to-reply gap";
}

TEST(SessionService, DestroyedEndpointAnswersParkedWaitsAndDetaches) {
  ScratchDir scratch("service-wait-detach");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  auto endpoint = std::make_unique<ServiceEndpoint>(
      service, scratch.path / "serviced.sock");
  const MetricCounter& waits =
      MetricsRegistry::global().counter("endpoint.requests.WAIT");
  const std::string id =
      service.submit_text(small_spec_text("9sym", 61, 50), 0, "orphaned");
  const std::uint64_t before = waits.value();
  AsyncWait wait(endpoint->socket_path(), id);
  wait_until([&] { return waits.value() > before; });  // parked
  endpoint.reset();
  wait.client.join();
  EXPECT_EQ(wait.reply, "ERR service shutting down\n");
  // The campaign turns terminal with its endpoint gone: the service must
  // not call back into it (the asan and tsan lanes run this test).
  ASSERT_TRUE(service.cancel(id));
  service.wait(id);
  EXPECT_EQ(service.status(id)->state, CampaignState::kCancelled);
}

TEST(SessionService, EndpointLeaksNoFileDescriptorsInEitherMode) {
  const auto open_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator("/proc/self/fd"))
      ++n;
    return n;
  };
  for (const EndpointMode mode :
       {EndpointMode::kReactor, EndpointMode::kThreadPerConnection}) {
    ScratchDir scratch(mode == EndpointMode::kReactor ? "service-fd-reactor"
                                                      : "service-fd-legacy");
    ServiceConfig config;
    config.root = scratch.path;
    config.num_threads = 1;
    config.snapshot_every = 0;
    SessionService service(config);
    const std::size_t before = open_fds();
    {
      EndpointOptions options;
      options.mode = mode;
      ServiceEndpoint endpoint(service, scratch.path / "serviced.sock",
                               options);
      std::vector<std::thread> clients;
      for (int i = 0; i < 8; ++i)
        clients.emplace_back([&] {
          for (int j = 0; j < 16; ++j)
            static_cast<void>(
                endpoint_request(endpoint.socket_path(), "PING\n"));
        });
      for (std::thread& t : clients) t.join();
    }
    EXPECT_EQ(open_fds(), before)
        << "endpoint mode " << static_cast<int>(mode)
        << " leaked file descriptors";
  }
}

// ---------------------------------------------------------- observability ---

TEST(SessionService, MetricsCommandExposesLiveSeries) {
  ScratchDir scratch("service-metrics");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  // Drive real traffic through every instrumented layer first.
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "PING\n"), "OK pong\n");
  const std::string id = service.submit_text(small_spec_text("9sym", 55));
  service.wait(id);

  const std::string response =
      endpoint_request(endpoint.socket_path(), "METRICS\n");
  ASSERT_EQ(response.rfind("OK text\n", 0), 0u) << response;
  const MetricsSnapshot snap =
      parse_metrics_text(response.substr(response.find('\n') + 1));

  // The process-wide registry accumulates across the whole test binary, so
  // assert presence and non-zero activity rather than exact totals.
  ASSERT_TRUE(snap.counters.count("endpoint.requests.PING"));
  EXPECT_GT(snap.counters.at("endpoint.requests.PING"), 0u);
  ASSERT_TRUE(snap.histograms.count("endpoint.request_us.PING"));
  EXPECT_GT(snap.histograms.at("endpoint.request_us.PING").count, 0u);
  ASSERT_TRUE(snap.counters.count("service.sessions_completed"));
  EXPECT_GE(snap.counters.at("service.sessions_completed"), 6u);
  ASSERT_TRUE(snap.histograms.count("session.wall_us"));
  EXPECT_GT(snap.histograms.at("session.wall_us").count, 0u);
  EXPECT_GT(snap.histograms.at("session.wall_us").sum, 0u);
  ASSERT_TRUE(snap.histograms.count("scheduler.ticket_wait_us"));
  EXPECT_GT(snap.histograms.at("scheduler.ticket_wait_us").count, 0u);
  ASSERT_TRUE(snap.counters.count("result_cache.misses"));
  EXPECT_GT(snap.counters.at("result_cache.misses"), 0u);
  ASSERT_TRUE(snap.counters.count("result_cache.stores"));
  // Every phase histogram of the session pipeline is populated.
  for (const char* phase : {"inject", "build", "detect", "localize",
                            "correct", "verify"}) {
    const std::string name = std::string("session.phase_us.") + phase;
    ASSERT_TRUE(snap.histograms.count(name)) << name;
    EXPECT_GT(snap.histograms.at(name).count, 0u) << name;
  }

  // JSON exposition and the format error path.
  const std::string json_response =
      endpoint_request(endpoint.socket_path(), "METRICS json\n");
  ASSERT_EQ(json_response.rfind("OK json\n", 0), 0u) << json_response;
  EXPECT_NE(json_response.find("\"session.wall_us\""), std::string::npos);
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "METRICS xml\n")
                .rfind("ERR ", 0),
            0u);

  // ServiceClient's typed wrapper strips the framing line.
  const ServiceClient client(endpoint.socket_path());
  const MetricsSnapshot via_client = parse_metrics_text(client.fetch_metrics());
  EXPECT_GE(via_client.counters.at("endpoint.requests.METRICS"), 1u);
}

TEST(SessionService, StatusCarriesDaemonLevelFields) {
  ScratchDir scratch("service-status-daemon");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  const std::string id = service.submit_text(small_spec_text("9sym", 71));
  service.wait(id);

  const std::string status =
      endpoint_request(endpoint.socket_path(), "STATUS " + id + "\n");
  EXPECT_NE(status.find(" uptime_s="), std::string::npos) << status;
  EXPECT_NE(status.find(" queued="), std::string::npos) << status;
  EXPECT_NE(status.find(" running="), std::string::npos) << status;

  const ServiceClient client(endpoint.socket_path());
  const RemoteCampaignStatus parsed = client.status(id);
  EXPECT_EQ(parsed.state, "finished");
  EXPECT_EQ(parsed.daemon_queued + parsed.daemon_running, 0u)
      << "a drained daemon has nothing queued or running";
}

TEST(SessionService, EventJournalRecordsTheCampaignLifecycle) {
  ScratchDir scratch("service-journal");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  std::string id, again;
  {
    SessionService service(config);
    id = service.submit_text(small_spec_text("9sym", 91), 2, "journaled");
    service.wait(id);
    again = service.submit_text(small_spec_text("9sym", 91), 0, "rerun");
    service.wait(again);
  }

  const std::string journal =
      read_file(scratch.path / "out" / id / "events.jsonl");
  for (const char* event : {"\"event\":\"submit\"", "\"event\":\"schedule\"",
                            "\"event\":\"session-start\"",
                            "\"event\":\"session-done\"",
                            "\"event\":\"finalize\""}) {
    EXPECT_NE(journal.find(event), std::string::npos)
        << event << " missing from:\n" << journal;
  }
  EXPECT_NE(journal.find("\"campaign\":\"" + id + "\""), std::string::npos);
  EXPECT_NE(journal.find("\"priority\":2"), std::string::npos) << journal;
  EXPECT_NE(journal.find("\"state\":\"finished\""), std::string::npos);
  // The cache-served rerun logs its hits.
  const std::string rerun_journal =
      read_file(scratch.path / "out" / again / "events.jsonl");
  EXPECT_NE(rerun_journal.find("\"event\":\"cache-hit\""), std::string::npos)
      << rerun_journal;

  // The journal is an audit artifact, never part of the deterministic
  // outputs: disabling it changes nothing about the report bytes.
  ServiceConfig silent = config;
  silent.root = scratch.path / "silent";
  silent.enable_journal = false;
  std::string silent_id;
  {
    SessionService service(silent);
    silent_id = service.submit_text(small_spec_text("9sym", 91));
    service.wait(silent_id);
  }
  EXPECT_FALSE(
      fs::exists(silent.root / "out" / silent_id / "events.jsonl"));
  EXPECT_EQ(read_file(silent.root / "out" / silent_id / "report.json"),
            read_file(scratch.path / "out" / id / "report.json"))
      << "journal on/off must not perturb deterministic artifacts";
}

TEST(SessionService, SubmitTraceparentPropagatesThroughToCampaignSpans) {
  ScratchDir scratch("service-traceparent");
  Tracer::global().reset();
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  // Submit with an explicit upstream context, the way a coordinator does.
  const TraceContext upstream{0x00c0ffee00c0ffeeull, 0x1234123412341234ull};
  const ServiceClient client(endpoint.socket_path());
  const std::string id =
      client.submit(small_spec_text("9sym", 55), 0, "traced",
                    format_traceparent(upstream));
  static_cast<void>(client.wait(id));

  // TRACESPANS serves the instance's buffer; the submitted trace must hold
  // the whole chain: request -> campaign -> queue wait -> session -> phases.
  const RemoteTraceSpans remote = client.fetch_trace_spans();
  EXPECT_GT(remote.now_us, 0u);
  std::vector<TraceSpan> trace;
  for (const TraceSpan& span : remote.spans)
    if (span.trace_id == upstream.trace_id && !span.open)
      trace.push_back(span);
  ASSERT_FALSE(trace.empty());

  const auto find_span = [&](const std::string& name) {
    return std::find_if(trace.begin(), trace.end(), [&](const TraceSpan& s) {
      return s.name == name;
    });
  };
  const auto request = find_span("endpoint.request.SUBMIT");
  ASSERT_NE(request, trace.end());
  EXPECT_EQ(request->parent_id, upstream.span_id)
      << "the request span must hang off the submitted traceparent";
  const auto campaign = find_span("campaign.run");
  ASSERT_NE(campaign, trace.end());
  EXPECT_EQ(campaign->parent_id, request->span_id);
  const auto session = find_span("session.run");
  ASSERT_NE(session, trace.end());
  EXPECT_EQ(session->parent_id, campaign->span_id);
  EXPECT_NE(find_span("scheduler.queue_wait"), trace.end());
  EXPECT_NE(find_span("session.phase.build"), trace.end());

  // No orphans: every nonzero parent inside the trace resolves, except the
  // upstream span the test invented (the submitter's side of the tree).
  std::set<std::uint64_t> ids;
  for (const TraceSpan& span : trace) ids.insert(span.span_id);
  for (const TraceSpan& span : trace)
    EXPECT_TRUE(span.parent_id == 0 || span.parent_id == upstream.span_id ||
                ids.count(span.parent_id))
        << span.name << " has an orphan parent";

  // The campaign's own trace.json sidecar loads as Chrome trace-event JSON.
  const std::string trace_json =
      read_file(scratch.path / "out" / id / "trace.json");
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"campaign.run\""), std::string::npos);

  // Journal records carry the schema version and the campaign's trace id.
  const std::string journal =
      read_file(scratch.path / "out" / id / "events.jsonl");
  EXPECT_NE(journal.find("\"schema\":1"), std::string::npos) << journal;
  EXPECT_NE(journal.find("\"trace_id\":\"00c0ffee00c0ffee\""),
            std::string::npos)
      << journal;
}

TEST(SessionService, SpoolTraceparentCommentJoinsTheTraceWithoutChangingSpec) {
  ScratchDir scratch("service-spool-trace");
  Tracer::global().reset();
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);

  const TraceContext upstream{0x0badc0de0badc0deull, 0x5678567856785678ull};
  const std::string text = small_spec_text("9sym", 61);
  EXPECT_EQ(extract_traceparent(
                prepend_traceparent(text, format_traceparent(upstream))),
            format_traceparent(upstream));
  EXPECT_EQ(prepend_traceparent(text, ""), text);
  static_cast<void>(spool_submit_spec(
      scratch.path, "spooled",
      prepend_traceparent(text, format_traceparent(upstream))));
  ASSERT_EQ(service.poll_spool(), 1u);
  service.drain();

  const auto statuses = service.list();
  ASSERT_EQ(statuses.size(), 1u);
  // The canonical spec.txt never carries the traceparent comment — content
  // hashes and cache keys see the same bytes either way.
  const std::string canonical =
      read_file(statuses[0].out_dir / "spec.txt");
  EXPECT_EQ(canonical.find("traceparent"), std::string::npos);

  const std::vector<TraceSpan> trace =
      Tracer::global().collect_trace(upstream.trace_id, false);
  ASSERT_FALSE(trace.empty());
  const auto campaign = std::find_if(
      trace.begin(), trace.end(),
      [](const TraceSpan& s) { return s.name == "campaign.run"; });
  ASSERT_NE(campaign, trace.end());
  EXPECT_EQ(campaign->parent_id, upstream.span_id);
}

TEST(SessionService, SlowRequestsWarnAndCount) {
  ScratchDir scratch("service-slow-request");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");
  endpoint.set_slow_request_ms(0);  // any measurable request trips it

  const std::uint64_t before =
      MetricsRegistry::global().counter("endpoint.slow_requests").value();
  // SUBMIT parses a spec and WAIT blocks on the campaign — both take
  // measurably longer than the zero threshold.
  const ServiceClient client(endpoint.socket_path());
  const std::string id = client.submit(small_spec_text("9sym", 77), 0, "slow");
  static_cast<void>(client.wait(id));
  const std::uint64_t after =
      MetricsRegistry::global().counter("endpoint.slow_requests").value();
  EXPECT_GT(after, before);
}

TEST(SessionService, TracingOnOffNeverPerturbsDeterministicArtifacts) {
  // The same campaign submitted with and without an upstream trace context
  // must produce byte-identical reports — traces are sidecars.
  ScratchDir scratch("service-trace-determinism");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);

  const std::string text = small_spec_text("styr", 83);
  const std::string traced_id = service.submit_text(
      text, 0, "with-trace", Tracer::global().child_context({}));
  service.wait(traced_id);
  const std::string plain_id =
      service.submit_text(text, 0, "no-trace", TraceContext{});
  service.wait(plain_id);

  const auto traced = service.status(traced_id);
  const auto plain = service.status(plain_id);
  ASSERT_TRUE(traced.has_value());
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(read_file(traced->out_dir / "report.json"),
            read_file(plain->out_dir / "report.json"));
  EXPECT_EQ(read_file(traced->out_dir / "report.csv"),
            read_file(plain->out_dir / "report.csv"));
  // Every campaign gets a trace (the service mints one when the submitter
  // brings none), so both carry the sidecar.
  EXPECT_TRUE(fs::exists(traced->out_dir / "trace.json"));
  EXPECT_TRUE(fs::exists(plain->out_dir / "trace.json"));
}

// ------------------------------------------------------ HELLO + transport ---

TEST(SessionService, HelloAdvertisesProtocolAndTransportCaps) {
  ScratchDir scratch("service-hello");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 1;
  SessionService service(config);

  EndpointOptions options;
  options.mode = EndpointMode::kReactor;
  options.tcp = ServiceAddress::tcp("127.0.0.1", 0);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock", options);

  // Raw grammar on the Unix socket: proto, stable id, mode, caps in order.
  const std::string reply =
      endpoint_request(endpoint.socket_path(), "HELLO\n");
  EXPECT_EQ(reply, "OK proto=2 id=" + endpoint.instance_id() +
                       " mode=reactor caps=oneshot,persist,tcp\n");

  // The same daemon answers identically over its TCP listener.
  ASSERT_TRUE(endpoint.tcp_address().has_value());
  EXPECT_NE(endpoint.tcp_address()->port, 0);
  EXPECT_EQ(endpoint_request(*endpoint.tcp_address(), "HELLO\n"), reply);

  // ServiceClient parses the reply into the typed ServiceHello.
  ServiceClient client(*endpoint.tcp_address());
  const ServiceHello& hello = client.hello();
  EXPECT_TRUE(hello.supported);
  EXPECT_EQ(hello.proto, 2);
  EXPECT_EQ(hello.id, endpoint.instance_id());
  EXPECT_EQ(hello.mode, "reactor");
  EXPECT_TRUE(hello.has_cap("oneshot"));
  EXPECT_TRUE(hello.has_cap("persist"));
  EXPECT_TRUE(hello.has_cap("tcp"));
  EXPECT_FALSE(hello.has_cap("warp-drive"));

  // Legacy mode: no reactor, no TCP — caps shrink to the one-shot baseline.
  ServiceConfig legacy_config;
  legacy_config.root = scratch.path / "legacy";
  legacy_config.num_threads = 1;
  SessionService legacy_service(legacy_config);
  EndpointOptions legacy_options;
  legacy_options.mode = EndpointMode::kThreadPerConnection;
  ServiceEndpoint legacy(legacy_service, legacy_config.root / "serviced.sock",
                         legacy_options);
  EXPECT_EQ(endpoint_request(legacy.socket_path(), "HELLO\n"),
            "OK proto=2 id=" + legacy.instance_id() +
                " mode=legacy caps=oneshot\n");
}

TEST(SessionService, HelloDegradesGracefullyAgainstPreV2Daemons) {
  ScratchDir scratch("service-hello-fallback");
  const fs::path sock = scratch.path / "old-daemon.sock";

  // A minimal pre-HELLO daemon: answers PING, rejects HELLO the way the
  // v1 line protocol did — `ERR unknown command` — and nothing else.
  const ServiceAddress addr = ServiceAddress::unix_socket(sock);
  const int listen_fd =
      listen_service_address(addr, /*backlog=*/4, /*nonblocking=*/true);
  std::atomic<bool> stop{false};
  std::thread old_daemon([listen_fd, &stop] {
    while (!stop.load()) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      std::string request;
      fd_read_all(conn, request, /*timeout_ms=*/5'000);
      if (request.rfind("PING", 0) == 0)
        fd_write_all(conn, "OK pong\n");
      else
        fd_write_all(conn, "ERR unknown command 'HELLO'\n");
      ::close(conn);
    }
  });

  ServiceClient client(addr, /*timeout_ms=*/5'000);
  client.set_persistent(true);  // must silently stay one-shot on a v1 daemon
  EXPECT_FALSE(client.hello().supported);
  EXPECT_EQ(client.hello().proto, 1);
  // The probe must not poison the client: v1 commands still work.
  EXPECT_TRUE(client.ping());

  stop.store(true);
  old_daemon.join();
  ::close(listen_fd);

  // A dead address also reads as "not supported", never a throw.
  ServiceClient dead(ServiceAddress::unix_socket(scratch.path / "no.sock"),
                     /*timeout_ms=*/500);
  EXPECT_FALSE(dead.hello().supported);
  EXPECT_FALSE(dead.ping());
}

TEST(SessionService, PersistentClientReusesOneConnection) {
  ScratchDir scratch("service-persistent");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);

  EndpointOptions options;
  options.mode = EndpointMode::kReactor;
  auto endpoint = std::make_unique<ServiceEndpoint>(
      service, scratch.path / "serviced.sock", options);

  const std::uint64_t handshakes_before =
      MetricsRegistry::global().counter("endpoint.persistent").value();

  ServiceClient client(ServiceAddress::unix_socket(endpoint->socket_path()));
  client.set_persistent(true);
  const std::string id = client.submit(small_spec_text("9sym", 412));
  EXPECT_EQ(client.wait(id), "finished");

  // Many single-line exchanges: all should ride one persistent channel and
  // return exactly what one-shot connections return.
  for (int i = 0; i < 5; ++i) {
    const RemoteCampaignStatus status = client.status(id);
    EXPECT_EQ(status.state, "finished");
    EXPECT_EQ(status.sessions_done, status.sessions_total);
  }
  ServiceClient oneshot(ServiceAddress::unix_socket(endpoint->socket_path()));
  EXPECT_EQ(client.list(), oneshot.list());

  EXPECT_EQ(
      MetricsRegistry::global().counter("endpoint.persistent").value(),
      handshakes_before + 1)
      << "five STATUS + one LIST should share a single PERSIST handshake";

  // Kill the daemon out from under the channel: the client must surface a
  // kIo ServiceError (the coordinator's instance-death signal), not hang.
  endpoint.reset();
  try {
    static_cast<void>(client.status(id));
    FAIL() << "expected ServiceError against a dead daemon";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kIo) << e.what();
  }
}

}  // namespace
}  // namespace emutile
