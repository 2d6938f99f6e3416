// Unit tests of the benchmark's own measurement helpers: the percentile
// rule, span-tree self time, the report digest, failure accounting, and the
// result line.

#include <gtest/gtest.h>

#include "ledger.hpp"
#include "workload.hpp"

namespace {

emutile::TraceSpan span(const std::string& name, std::uint64_t id,
                        std::uint64_t parent, std::uint64_t start_us,
                        std::uint64_t dur_us) {
  emutile::TraceSpan s;
  s.name = name;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_id = parent;
  s.start_us = start_us;
  s.dur_us = dur_us;
  return s;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(bench::percentile(v, 0.5), 50);
  EXPECT_EQ(bench::percentile(v, 0.9), 90);
  EXPECT_EQ(bench::percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(bench::percentile({}, 0.5), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(bench::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(bench::samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(bench::samples_beyond(10, 0.5), 5u);
  EXPECT_EQ(bench::min_samples_for_tail(0.9), 100u);
  EXPECT_EQ(bench::min_samples_for_tail(0.5), 20u);
  EXPECT_EQ(bench::min_samples_for_tail(0.99), 1000u);
}

TEST(SelfTime, SubtractsChildCoverage) {
  // session [0,100) with build [10,40) and localize [40,90); localize holds
  // one synthesized route span [50,70).
  const std::vector<emutile::TraceSpan> spans = {
      span("bench.session", 1, 0, 0, 100),
      span("session.phase.build", 2, 1, 10, 30),
      span("session.phase.localize", 3, 1, 40, 50),
      span("route.eco", 4, 3, 50, 20),
  };
  const auto self = bench::self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("campaign"), 20e-6);  // 100 - 30 - 50
  EXPECT_DOUBLE_EQ(self.at("core"), 30e-6);
  EXPECT_DOUBLE_EQ(self.at("debug"), 30e-6);     // 50 - 20
  EXPECT_DOUBLE_EQ(self.at("route"), 20e-6);
}

TEST(SelfTime, ParallelAndOverhangingChildrenCountOnce) {
  // campaign.run [0,100) with two parallel sessions [10,60) and [20,70),
  // and a third that overhangs the parent's end [90,130).
  const std::vector<emutile::TraceSpan> spans = {
      span("campaign.run", 1, 0, 0, 100),
      span("session.run", 2, 1, 10, 50),
      span("session.run", 3, 1, 20, 50),
      span("session.run", 4, 1, 90, 40),
  };
  const auto self = bench::self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("service"), 30e-6);  // 100 - [10,70) - [90,100)
  EXPECT_DOUBLE_EQ(self.at("campaign"), 140e-6);
}

TEST(SelfTime, LayersFollowModules) {
  EXPECT_EQ(bench::layer_of("session.phase.detect"), "sim");
  EXPECT_EQ(bench::layer_of("session.phase.verify"), "sim");
  EXPECT_EQ(bench::layer_of("session.phase.inject"), "debug");
  EXPECT_EQ(bench::layer_of("localizer.round"), "debug");
  EXPECT_EQ(bench::layer_of("session.phase.build"), "core");
  EXPECT_EQ(bench::layer_of("endpoint.request.SUBMIT"), "service");
  EXPECT_EQ(bench::layer_of("bench.wait"), "bench");
  EXPECT_EQ(bench::layer_of("orchestrate.dispatch"), "orchestrator");
  EXPECT_EQ(bench::layer_of("bench.request"), "bench");
  EXPECT_EQ(bench::layer_of("mystery"), "other");
}

TEST(Digest, OrderAndBoundariesMatter) {
  bench::Digest a, b, c, d;
  a.add("x");
  a.add("y");
  b.add("x");
  b.add("y");
  c.add("y");
  c.add("x");
  d.add("xy");
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_NE(a.hex(), c.hex());
  EXPECT_NE(a.hex(), d.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Digest, SessionFingerprintSeesDeterministicFieldsOnly) {
  emutile::SessionOutcome a;
  a.report.detection.error_detected = true;
  a.report.localization.suspects = {emutile::CellId(3), emutile::CellId(5)};
  emutile::SessionOutcome b = a;
  b.report.wall_seconds = 1.5;  // timing never enters the fingerprint
  b.report.debug_effort.route_ms = 9.0;
  EXPECT_EQ(bench::session_fingerprint(a), bench::session_fingerprint(b));
  b.report.localization.suspects.pop_back();
  EXPECT_NE(bench::session_fingerprint(a), bench::session_fingerprint(b));
}

TEST(Tally, CountsAttemptsAndReasons) {
  bench::Tally t;
  EXPECT_EQ(t.failed_frac(), 0.0);
  t.ok();
  t.ok();
  t.fail("timeout");
  t.fail("timeout");
  t.fail("mismatch");
  EXPECT_EQ(t.attempted(), 5u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.6);
  EXPECT_EQ(t.reasons().at("timeout"), 2u);
  EXPECT_EQ(t.reasons().at("mismatch"), 1u);
}

TEST(Quality, FractionsOverDetectedSessions) {
  bench::WorkloadResult result;
  bench::Quality q;
  emutile::DebugSessionReport hit;
  hit.detection.error_detected = true;
  hit.injected.cell = emutile::CellId(4);
  hit.localization.suspects = {emutile::CellId(4)};
  hit.final_clean = true;
  hit.debug_effort.nets_routed = 10;
  emutile::DebugSessionReport lost = hit;
  lost.localization.suspects = {emutile::CellId(9)};
  lost.final_clean = false;
  emutile::DebugSessionReport silent;
  q.add(hit);
  q.add(lost);
  q.add(silent);
  q.fill(result);
  EXPECT_DOUBLE_EQ(result.end_to_end.get("detect_frac"), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(result.end_to_end.get("clean_frac"), 0.5);
  EXPECT_DOUBLE_EQ(result.end_to_end.get("site_retained_frac"), 0.5);
  EXPECT_DOUBLE_EQ(result.end_to_end.get("debug_work_units"), 20.0 / 3.0);
}

TEST(ResultLine, ExactKeysAndNonFiniteIsIncorrect) {
  const std::string line =
      bench::result_json_line(true, 3, 0, {{"setup_s", 0.25, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  const std::string bad = bench::result_json_line(
      true, 1, 0, {{"x", std::numeric_limits<double>::infinity(), "s"}});
  EXPECT_NE(bad.find("\"correct\": false"), std::string::npos);
}

TEST(MetricSet, RejectsNamesOutsideTheCatalogue) {
  bench::MetricSet m(bench::end_to_end_catalogue());
  m.set("setup_s", 1.0);
  EXPECT_EQ(m.get("setup_s"), 1.0);
  EXPECT_THROW(m.set("setup_seconds", 1.0), std::logic_error);
}

}  // namespace
