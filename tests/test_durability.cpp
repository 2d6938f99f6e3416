// Durability tests: the per-campaign write-ahead journal (round-trip, torn
// appends, poisoned-journal rejection), crash-kill fault injection — SIGKILL
// at every ordering-sensitive persistence point, restart with reattach(),
// and a byte-identical final report with journaled sessions replayed from
// the result cache instead of re-executed — plus restart hygiene (stale and
// poisoned output dirs archived, never silently shadowed) and the
// drain-for-handoff admission contract behind rolling upgrades.
//
// The randomized kill test logs its seed and replays from EMUTILE_KILL_SEED,
// so a CI flake is reproducible with one environment variable.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec_io.hpp"
#include "service/campaign_wal.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "test_helpers.hpp"
#include "util/fault_inject.hpp"

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

/// 2 error kinds x `replicas` replicas on one design — small enough that a
/// kill-restart cycle stays fast, big enough that a crash lands mid-stream.
std::string small_spec_text(std::uint64_t master_seed, int replicas = 2) {
  std::ostringstream os;
  os << "emutile-campaign v1\n"
     << "design 9sym\n"
     << "error_kind wrong-polarity\n"
     << "error_kind wrong-connection\n"
     << "tiling 6 0.3 1 12 4\n"
     << "sessions_per_scenario " << replicas << "\n"
     << "master_seed " << master_seed << "\n"
     << "num_patterns 96\n"
     << "end\n";
  return os.str();
}

ServiceConfig service_config(const fs::path& root) {
  ServiceConfig config;
  config.root = root;
  config.num_threads = 2;
  config.snapshot_every = 0;
  return config;
}

std::vector<std::string> wal_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_wal_lines(const fs::path& path,
                     const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

/// Flip one body character so the line's checksum no longer matches.
std::string corrupted(std::string line) {
  line[0] = line[0] == 'x' ? 'y' : 'x';
  return line;
}

/// `body` as a journal line with a valid checksum (the writer's format).
std::string checksummed(const std::string& body) {
  char sum[9];
  std::snprintf(sum, sizeof sum, "%08llx",
                static_cast<unsigned long long>(fnv1a64(body) & 0xffffffffull));
  return body + " #" + sum;
}

// ------------------------------------------------------------ WAL format ---

TEST(CampaignWal, WriterRoundTripsThroughParser) {
  ScratchDir scratch("wal-roundtrip");
  const fs::path path = scratch.path / "deep" / "journal.wal";
  {
    CampaignWalWriter writer(path);  // creates the parent directory
    ASSERT_TRUE(writer.ok());
    writer.begin("kill-1", "00000000deadbeef", 3);
    writer.session(0, 0x1111, true);
    writer.session(2, 0, false);  // completed but not memoizable
    writer.complete("finished");
  }
  std::string error;
  const std::optional<CampaignWal> wal = load_campaign_wal(path, &error);
  ASSERT_TRUE(wal.has_value()) << error;
  EXPECT_EQ(wal->campaign_id, "kill-1");
  EXPECT_EQ(wal->spec_hash, "00000000deadbeef");
  EXPECT_EQ(wal->priority, 3);
  ASSERT_EQ(wal->sessions.size(), 2u);
  EXPECT_EQ(wal->sessions[0].index, 0u);
  EXPECT_TRUE(wal->sessions[0].has_key);
  EXPECT_EQ(wal->sessions[0].key, 0x1111u);
  EXPECT_EQ(wal->sessions[1].index, 2u);
  EXPECT_FALSE(wal->sessions[1].has_key);
  EXPECT_TRUE(wal->complete);
  EXPECT_EQ(wal->final_state, "finished");
}

TEST(CampaignWal, TornFinalLineIsDroppedNotFatal) {
  ScratchDir scratch("wal-torn");
  const fs::path path = scratch.path / "journal.wal";
  {
    CampaignWalWriter writer(path);
    writer.begin("kill-2", "0123456789abcdef", 0);
    writer.session(0, 0xaa, true);
    writer.session(1, 0xbb, true);
    writer.complete("finished");
  }

  // A damaged last line is a torn append: the record is dropped, the rest
  // of the journal is trusted — here the `complete` promise disappears and
  // the campaign reads as still in flight.
  const std::vector<std::string> good = wal_lines(path);
  std::vector<std::string> lines = good;
  lines.back() = corrupted(lines.back());
  write_wal_lines(path, lines);
  std::optional<CampaignWal> wal = load_campaign_wal(path);
  ASSERT_TRUE(wal.has_value());
  EXPECT_FALSE(wal->complete);
  EXPECT_EQ(wal->sessions.size(), 2u);

  // The writer dying mid-append leaves a checksum-less fragment: same story.
  write_wal_lines(path, good);
  std::ofstream(path, std::ios::app) << "session 2 00000000000000";
  wal = load_campaign_wal(path);
  ASSERT_TRUE(wal.has_value());
  EXPECT_TRUE(wal->complete);
  EXPECT_EQ(wal->sessions.size(), 2u);
}

TEST(CampaignWal, MidstreamDamagePoisonsTheWholeJournal) {
  ScratchDir scratch("wal-poison");
  const fs::path path = scratch.path / "journal.wal";
  {
    CampaignWalWriter writer(path);
    writer.begin("kill-3", "0123456789abcdef", 0);
    writer.session(0, 0xaa, true);
    writer.session(1, 0xbb, true);
  }
  const std::vector<std::string> good = wal_lines(path);

  // Damage before the last line cannot be a torn append — the journal is
  // rejected with a reason instead of half-trusted.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{1}}) {
    std::vector<std::string> lines = good;
    lines[victim] = corrupted(lines[victim]);
    write_wal_lines(path, lines);
    std::string error;
    EXPECT_FALSE(load_campaign_wal(path, &error).has_value())
        << "line " << victim;
    EXPECT_FALSE(error.empty());
  }

  // A lone damaged header has nothing to fall back on.
  write_wal_lines(path, {corrupted(good[0])});
  EXPECT_FALSE(load_campaign_wal(path).has_value());

  // A checksum-valid record whose index is not a job index (a negative one
  // would wrap to 2^64 - 1) is corruption, not a session.
  ASSERT_EQ(checksummed("session 1 00000000000000bb"), good[2]);
  for (const char* index : {"-1", "1x", "18446744073709551616"}) {
    const std::string bad = checksummed(std::string("session ") + index + " -");
    write_wal_lines(path, {good[0], good[1], bad});
    std::string error;
    EXPECT_FALSE(load_campaign_wal(path, &error).has_value()) << index;
    EXPECT_NE(error.find("bad session index"), std::string::npos) << error;
  }

  // Empty and missing files are poisoned too, never "valid and empty".
  write_wal_lines(path, {});
  EXPECT_FALSE(load_campaign_wal(path).has_value());
  std::string error;
  EXPECT_FALSE(
      load_campaign_wal(scratch.path / "nonexistent.wal", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CampaignWal, DuplicateSessionRecordsLastWins) {
  ScratchDir scratch("wal-dup");
  const fs::path path = scratch.path / "journal.wal";
  {
    CampaignWalWriter writer(path);
    writer.begin("kill-4", "0123456789abcdef", 0);
    writer.session(1, 0xaa, true);
    writer.session(1, 0xbb, true);  // a resumed campaign re-ran session 1
  }
  const std::optional<CampaignWal> wal = load_campaign_wal(path);
  ASSERT_TRUE(wal.has_value());
  ASSERT_EQ(wal->sessions.size(), 1u);
  EXPECT_EQ(wal->sessions[0].index, 1u);
  EXPECT_EQ(wal->sessions[0].key, 0xbbu);
}

// -------------------------------------------------- crash-kill harness ---

struct KillOutcome {
  bool killed = false;  ///< child died by signal (the fault point fired)
  int code = 0;         ///< signal number when killed, exit status otherwise
};

/// Fork a child that runs `spec` through a fresh SessionService on `root`
/// with EMUTILE_FAULT_POINT=`fault` set: the child either dies by SIGKILL at
/// the fault point or exits 42 (the fault's skip count outran the campaign —
/// the campaign simply finished).
KillOutcome run_campaign_to_kill(const fs::path& root, const std::string& spec,
                                 const std::string& fault) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("EMUTILE_FAULT_POINT", fault.c_str(), 1);
    try {
      SessionService service(service_config(root));
      static_cast<void>(service.submit_text(spec, 0, "kill"));
      service.drain();
    } catch (...) {
      ::_exit(43);
    }
    ::_exit(42);  // no destructors — the reports + WAL are already on disk
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFSIGNALED(status)) return {true, WTERMSIG(status)};
  return {false, WEXITSTATUS(status)};
}

struct AttachOutcome {
  ReattachStats stats;
  std::string state;
  std::size_t replayed = 0;
  std::string json;
  std::string csv;
};

/// Restart side of the crash: attach to the surviving root, finish whatever
/// resumed, and return the (single) campaign's terminal state and report
/// bytes.
AttachOutcome attach_and_finish(const fs::path& root) {
  SessionService service(service_config(root));
  AttachOutcome out;
  out.stats = service.reattach();
  service.drain();
  const std::vector<CampaignStatus> all = service.list();
  EXPECT_EQ(all.size(), 1u);
  if (all.empty()) return out;
  out.state = to_string(all[0].state);
  out.replayed = all[0].replayed;
  out.json = read_file(all[0].out_dir / "report.json");
  out.csv = read_file(all[0].out_dir / "report.csv");
  return out;
}

const char* const kFaultPoints[] = {
    "cache.pre-store",      // before the session result reaches the cache
    "session.pre-wal",      // cached, not yet journaled
    "session.post-wal",     // journaled: replay must recover it for free
    "finalize.pre-report",  // all sessions journaled, no report yet
    "finalize.pre-complete"  // reports on disk, completion promise missing
};

TEST(Durability, SigkillAtEveryFaultPointRecoversByteIdentical) {
  if (!fault_points_compiled_in())
    GTEST_SKIP() << "fault points compiled out (Release build)";

  const std::string spec = small_spec_text(501);
  const CampaignReport direct = run_campaign(parse_campaign_spec(spec));
  const std::string ref_json = direct.to_json();
  const std::string ref_csv = direct.to_csv();

  for (const char* point : kFaultPoints) {
    ScratchDir scratch(std::string("kill-") + point);
    const KillOutcome kill = run_campaign_to_kill(scratch.path, spec, point);
    ASSERT_TRUE(kill.killed) << point << ": fault point never fired";
    EXPECT_EQ(kill.code, SIGKILL) << point;

    const AttachOutcome attached = attach_and_finish(scratch.path);
    EXPECT_EQ(attached.stats.resumed, 1u) << point;
    EXPECT_EQ(attached.stats.archived, 0u) << point;
    EXPECT_EQ(attached.state, "finished") << point;
    EXPECT_EQ(attached.json, ref_json)
        << point << ": resumed report diverged from a fresh run";
    EXPECT_EQ(test::diff_campaign_reports_csv(ref_csv, attached.csv), "")
        << point;

    // Past session.post-wal at least one session record hit the journal
    // before the kill — recovery must replay it from the cache instead of
    // re-executing it.
    const std::string name(point);
    if (name == "session.post-wal" || name.rfind("finalize.", 0) == 0) {
      EXPECT_GE(attached.replayed, 1u)
          << point << ": journaled sessions were re-executed";
    }
  }
}

TEST(Durability, RandomizedKillPointsReplayFromLoggedSeed) {
  if (!fault_points_compiled_in())
    GTEST_SKIP() << "fault points compiled out (Release build)";

  // Flake guard: the seed is logged on every run and honored from the
  // environment, so any CI failure replays exactly with
  // EMUTILE_KILL_SEED=<logged value>.
  std::uint64_t seed = 0;
  if (const char* env = std::getenv("EMUTILE_KILL_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  else
    seed = std::random_device{}();
  std::cout << "[ durability ] kill seed " << seed
            << " (replay with EMUTILE_KILL_SEED=" << seed << ")\n";
  RecordProperty("kill_seed", std::to_string(seed));
  std::mt19937_64 rng(seed);

  const std::string spec = small_spec_text(502);
  const CampaignReport direct = run_campaign(parse_campaign_spec(spec));
  const std::string ref_json = direct.to_json();
  const std::string ref_csv = direct.to_csv();

  for (int round = 0; round < 2; ++round) {
    const char* point = kFaultPoints[rng() % std::size(kFaultPoints)];
    const std::string fault =
        std::string(point) + ":" + std::to_string(rng() % 4);
    ScratchDir scratch("kill-rand-" + std::to_string(round));
    const KillOutcome kill = run_campaign_to_kill(scratch.path, spec, fault);
    // A skip count past the campaign's hit total means no crash — the child
    // finished cleanly and reattach re-registers the completed campaign.
    if (kill.killed)
      EXPECT_EQ(kill.code, SIGKILL) << fault << " seed " << seed;
    else
      EXPECT_EQ(kill.code, 42) << fault << " seed " << seed;

    const AttachOutcome attached = attach_and_finish(scratch.path);
    EXPECT_EQ(attached.stats.resumed + attached.stats.completed, 1u)
        << fault << " seed " << seed;
    EXPECT_EQ(attached.state, "finished") << fault << " seed " << seed;
    EXPECT_EQ(attached.json, ref_json) << fault << " seed " << seed;
    EXPECT_EQ(test::diff_campaign_reports_csv(ref_csv, attached.csv), "")
        << fault << " seed " << seed;
  }
}

// ------------------------------------------------------ restart hygiene ---

TEST(Durability, PoisonedJournalIsArchivedAndRerunCleanly) {
  ScratchDir scratch("poison-archive");
  const std::string spec = small_spec_text(503);
  std::string id;
  {
    SessionService service(service_config(scratch.path));
    id = service.submit_text(spec, 0, "victim");
    service.wait(id);
  }
  const fs::path wal_path = scratch.path / "out" / id / "journal.wal";
  std::vector<std::string> lines = wal_lines(wal_path);
  ASSERT_GE(lines.size(), 3u);
  lines[1] = corrupted(lines[1]);  // mid-file damage: poisoned, not torn
  write_wal_lines(wal_path, lines);

  SessionService service(service_config(scratch.path));
  const ReattachStats stats = service.reattach();
  EXPECT_EQ(stats.resumed, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.archived, 1u);
  EXPECT_EQ(stats.resubmitted, 1u)
      << "an archived dir with a readable spec must re-run, not vanish";
  EXPECT_TRUE(fs::exists(scratch.path / "out" / (id + ".stale")))
      << "the unvalidatable dir must be archived, not silently shadowed";
  EXPECT_TRUE(
      fs::exists(scratch.path / "out" / (id + ".stale") / "report.json"))
      << "archiving must preserve the old artifacts for forensics";

  service.drain();
  const std::vector<CampaignStatus> all = service.list();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].state, CampaignState::kFinished) << all[0].error;
  const CampaignReport direct = run_campaign(parse_campaign_spec(spec));
  EXPECT_EQ(read_file(all[0].out_dir / "report.json"), direct.to_json());
}

TEST(Durability, TruncatedJournalResumesAndReplaysJournaledSessions) {
  ScratchDir scratch("truncate-resume");
  const std::string spec = small_spec_text(504);
  std::string id;
  {
    SessionService service(service_config(scratch.path));
    id = service.submit_text(spec, 0, "cut");
    service.wait(id);
  }
  // Drop the completion record and tear the last session record in half —
  // the on-disk state of a daemon killed mid-append.
  const fs::path wal_path = scratch.path / "out" / id / "journal.wal";
  std::vector<std::string> lines = wal_lines(wal_path);
  ASSERT_GE(lines.size(), 4u);  // header + 4 sessions + complete
  lines.pop_back();             // complete
  const std::string torn = lines.back().substr(0, lines.back().size() / 2);
  lines.back() = torn;
  write_wal_lines(wal_path, lines);

  SessionService service(service_config(scratch.path));
  const ReattachStats stats = service.reattach();
  EXPECT_EQ(stats.resumed, 1u);
  EXPECT_EQ(stats.archived, 0u);
  service.drain();

  const auto status = service.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, CampaignState::kFinished) << status->error;
  EXPECT_GE(status->replayed, 1u)
      << "intact journal records must replay from the cache";
  const CampaignReport direct = run_campaign(parse_campaign_spec(spec));
  EXPECT_EQ(read_file(status->out_dir / "report.json"), direct.to_json());
  EXPECT_EQ(
      test::diff_campaign_reports_csv(direct.to_csv(),
                                      read_file(status->out_dir /
                                                "report.csv")),
      "");
}

TEST(Durability, OutputDirWithoutJournalIsArchivedNotShadowed) {
  ScratchDir scratch("stale-archive");
  const std::string spec = small_spec_text(505);

  // A journal-less survivor with a readable spec (e.g. a daemon killed
  // between writing spec.txt and the WAL header) and one with garbage where
  // the spec should be.
  fs::create_directories(scratch.path / "out" / "mystery");
  std::ofstream(scratch.path / "out" / "mystery" / "spec.txt")
      << serialize_campaign_spec(parse_campaign_spec(spec));
  fs::create_directories(scratch.path / "out" / "junk");
  std::ofstream(scratch.path / "out" / "junk" / "spec.txt") << "not a spec\n";

  SessionService service(service_config(scratch.path));
  const ReattachStats stats = service.reattach();
  EXPECT_EQ(stats.resumed, 0u);
  EXPECT_EQ(stats.archived, 2u);
  EXPECT_EQ(stats.resubmitted, 1u);
  EXPECT_TRUE(fs::exists(scratch.path / "out" / "mystery.stale" / "spec.txt"));
  EXPECT_TRUE(fs::exists(scratch.path / "out" / "junk.stale"));

  service.drain();
  const std::vector<CampaignStatus> all = service.list();
  ASSERT_EQ(all.size(), 1u);  // only the readable spec re-ran
  EXPECT_EQ(all[0].state, CampaignState::kFinished) << all[0].error;
  const CampaignReport direct = run_campaign(parse_campaign_spec(spec));
  EXPECT_EQ(read_file(all[0].out_dir / "report.json"), direct.to_json());

  // A second reattach skips the .stale archives and re-registers the
  // finished re-run instead of touching anything again.
  SessionService again(service_config(scratch.path));
  const ReattachStats second = again.reattach();
  EXPECT_EQ(second.archived, 0u) << "archives must not be archived again";
  EXPECT_EQ(second.completed, 1u);
}

// --------------------------------------------------- drain-for-handoff ---

TEST(Durability, DrainStopsAdmissionAndFinishesInFlightWork) {
  ScratchDir scratch("drain-handoff");
  ServiceConfig config = service_config(scratch.path);
  config.num_threads = 1;
  SessionService service(config);
  ServiceEndpoint endpoint(service, scratch.path / "serviced.sock");

  // Enough replicas that the drain lands while sessions are still running.
  const std::string slow = small_spec_text(506, /*replicas=*/6);
  const std::string id = service.submit_text(slow, 0, "inflight");

  const std::string reply =
      endpoint_request(endpoint.socket_path(), "DRAIN\n");
  EXPECT_EQ(reply.rfind("OK draining", 0), 0u) << reply;
  EXPECT_TRUE(service.draining());
  // Idempotent: a second DRAIN is a no-op acknowledgement.
  EXPECT_EQ(endpoint_request(endpoint.socket_path(), "DRAIN\n")
                .rfind("OK draining", 0),
            0u);

  // New work is shed with the distinguished `ERR draining` token on every
  // admission path; the coordinator switches on the ServiceError code to
  // route elsewhere.
  EXPECT_THROW(static_cast<void>(service.submit_text(small_spec_text(507))),
               ServiceBusyError);
  std::ostringstream submit;
  submit << "SUBMIT 0 late\n" << small_spec_text(507);
  const std::string shed =
      endpoint_request(endpoint.socket_path(), submit.str());
  EXPECT_EQ(shed.rfind("ERR draining", 0), 0u) << shed;

  // Spooled specs stay put for the successor daemon — busy means "later",
  // never "rejected".
  std::ofstream(scratch.path / "spool" / "patient.spec")
      << small_spec_text(508);
  EXPECT_EQ(service.poll_spool(), 0u);
  EXPECT_TRUE(fs::exists(scratch.path / "spool" / "patient.spec"));

  // STATUS advertises the drain so supervisors take the instance out of
  // rotation while still collecting its in-flight shards.
  const std::string status =
      endpoint_request(endpoint.socket_path(), "STATUS " + id + "\n");
  EXPECT_NE(status.find(" draining=1"), std::string::npos) << status;
  const ServiceClient client(endpoint.socket_path());
  EXPECT_TRUE(client.status(id).daemon_draining);

  // The in-flight campaign still finishes — drain never abandons work.
  service.drain();
  const auto final_status = service.status(id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->state, CampaignState::kFinished)
      << final_status->error;
  EXPECT_EQ(final_status->sessions_done, final_status->sessions_total);
  const CampaignReport direct = run_campaign(parse_campaign_spec(slow));
  EXPECT_EQ(read_file(final_status->out_dir / "report.json"),
            direct.to_json());
}

}  // namespace
}  // namespace emutile
