// Trace-layer tests: traceparent wire form, TLS span nesting and
// cross-thread handoff, synthesized spans, the wire-text round-trip and its
// rejection of malformed input, Chrome trace-event JSON, the bounded span
// ring, span algebra (shift/dedup), a concurrent recording hammer (the TSan
// preset runs this binary), and the determinism contract: report artifacts
// are byte-identical whether or not tracing recorded anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace emutile {
namespace {

// ------------------------------------------------------------ traceparent ---

TEST(Traceparent, RoundTripsThroughTheWireForm) {
  const TraceContext ctx{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string wire = format_traceparent(ctx);
  EXPECT_EQ(wire, "0123456789abcdef-fedcba9876543210");
  const auto parsed = parse_traceparent(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
}

TEST(Traceparent, RootContextWithNoSpanSurvivesTheWire) {
  // mint_trace() yields span_id 0 (a root with no span open yet); that must
  // still travel, or a submitter's fresh trace id would be dropped.
  const auto parsed = parse_traceparent(format_traceparent(
      TraceContext{0x00000000000000aaull, 0}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, 0xaaull);
  EXPECT_EQ(parsed->span_id, 0ull);
}

TEST(Traceparent, RejectsGarbage) {
  EXPECT_FALSE(parse_traceparent(""));
  EXPECT_FALSE(parse_traceparent("not-a-traceparent"));
  EXPECT_FALSE(parse_traceparent("0123456789abcdef"));           // no span
  EXPECT_FALSE(parse_traceparent("0123456789abcdef-012345"));    // short span
  EXPECT_FALSE(parse_traceparent("0123456789abcdeg-fedcba9876543210"));
  EXPECT_FALSE(parse_traceparent("0123456789abcdef_fedcba9876543210"));
  EXPECT_FALSE(parse_traceparent(
      "0000000000000000-fedcba9876543210"));  // zero trace id is invalid
  EXPECT_FALSE(parse_traceparent(
      "0123456789abcdef-fedcba9876543210 "));  // trailing junk
  EXPECT_FALSE(parse_traceparent(
      "0123456789ABCDEF-FEDCBA9876543210"));  // upper-case is not canonical
}

// ----------------------------------------------------------- span nesting ---

TEST(Tracer, ScopedSpansNestViaTheThreadLocalStack) {
  Tracer tracer;
  TraceContext outer_ctx, inner_ctx;
  {
    const ScopedSpan outer(tracer, "outer");
    outer_ctx = outer.context();
    EXPECT_TRUE(outer_ctx.valid());
    EXPECT_EQ(tracer.current().span_id, outer_ctx.span_id);
    {
      const ScopedSpan inner(tracer, "inner");
      inner_ctx = inner.context();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
      EXPECT_EQ(tracer.current().span_id, inner_ctx.span_id);
    }
    EXPECT_EQ(tracer.current().span_id, outer_ctx.span_id);
  }
  EXPECT_FALSE(tracer.current().valid());

  const std::vector<TraceSpan> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start: outer first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_id, outer_ctx.span_id);
  EXPECT_FALSE(spans[0].open);
  EXPECT_FALSE(spans[1].open);
}

TEST(Tracer, PrivateTracersDoNotCrossTalkWithTheGlobalStack) {
  Tracer mine;
  Tracer& global = Tracer::global();
  const ScopedSpan global_span(global, "global.work");
  const ScopedSpan my_span(mine, "my.work");
  // Each tracer's current() sees only its own frames.
  EXPECT_EQ(mine.current().span_id, my_span.context().span_id);
  EXPECT_EQ(global.current().span_id, global_span.context().span_id);
  // And the private span is a root: the global frame is not its parent.
  const std::vector<TraceSpan> open = mine.collect(true);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].parent_id, 0u);
}

TEST(Tracer, ExplicitParentCarriesAcrossAThreadHandoff) {
  Tracer tracer;
  const ScopedSpan parent(tracer, "submit");
  const TraceContext handoff = parent.context();
  std::thread worker([&] {
    // A fresh thread has an empty stack; the explicit context re-parents.
    EXPECT_FALSE(tracer.current().valid());
    const ScopedSpan child(tracer, "session", handoff);
    EXPECT_EQ(child.context().trace_id, handoff.trace_id);
  });
  worker.join();
  const std::vector<TraceSpan> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 2u);  // "session" closed + "submit" still open
  const auto session = std::find_if(
      spans.begin(), spans.end(),
      [](const TraceSpan& s) { return s.name == "session"; });
  ASSERT_NE(session, spans.end());
  EXPECT_EQ(session->parent_id, handoff.span_id);
  EXPECT_EQ(session->trace_id, handoff.trace_id);
  EXPECT_FALSE(session->open);
}

TEST(Tracer, RecordSpanSynthesizesAFullyFormedSpan) {
  Tracer tracer;
  const TraceContext root = tracer.mint_trace();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.span_id, 0u);
  const TraceContext ctx = tracer.child_context(root);
  EXPECT_EQ(ctx.trace_id, root.trace_id);
  tracer.record_span("queue.wait", ctx, 42, 1000, 250);
  const std::vector<TraceSpan> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "queue.wait");
  EXPECT_EQ(spans[0].trace_id, root.trace_id);
  EXPECT_EQ(spans[0].span_id, ctx.span_id);
  EXPECT_EQ(spans[0].parent_id, 42u);
  EXPECT_EQ(spans[0].start_us, 1000u);
  EXPECT_EQ(spans[0].dur_us, 250u);
}

TEST(Tracer, CollectTraceFiltersByTraceId) {
  Tracer tracer;
  const TraceContext a = tracer.child_context({});
  const TraceContext b = tracer.child_context({});
  tracer.record_span("a.work", a, 0, 10, 5);
  tracer.record_span("b.work", b, 0, 20, 5);
  const std::vector<TraceSpan> only_a = tracer.collect_trace(a.trace_id);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].name, "a.work");
}

TEST(Tracer, OpenSpansAreVisibleAndFilterable) {
  Tracer tracer;
  const ScopedSpan span(tracer, "in.flight");
  const std::vector<TraceSpan> with_open = tracer.collect(true);
  ASSERT_EQ(with_open.size(), 1u);
  EXPECT_TRUE(with_open[0].open);
  EXPECT_TRUE(tracer.collect(false).empty());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer;
  // All spans from this thread land in one stripe; overflow it.
  const std::size_t total = 9000;  // > kRingCapacity (8192)
  for (std::size_t i = 0; i < total; ++i) {
    const ScopedSpan span(tracer, "tiny");
    static_cast<void>(span);
  }
  EXPECT_GT(tracer.dropped(), 0u);
  const std::vector<TraceSpan> spans = tracer.collect();
  EXPECT_LT(spans.size(), total);
  EXPECT_EQ(spans.size() + tracer.dropped(), total);
  tracer.reset();
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ConcurrentRecordingKeepsEveryInvariant) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 400;
  const TraceContext root = tracer.child_context({});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, root] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const ScopedSpan outer(tracer, "hammer.outer", root);
        const ScopedSpan inner(tracer, "hammer.inner");
        static_cast<void>(inner);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<TraceSpan> spans = tracer.collect();
  EXPECT_EQ(spans.size() + tracer.dropped(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  std::set<std::uint64_t> ids;
  for (const TraceSpan& s : spans) {
    EXPECT_EQ(s.trace_id, root.trace_id);
    EXPECT_TRUE(ids.insert(s.span_id).second) << "duplicate span id";
    EXPECT_FALSE(s.open);
  }
}

// ---------------------------------------------------------------- wire io ---

std::vector<TraceSpan> sample_spans() {
  std::vector<TraceSpan> spans(2);
  spans[0].name = "endpoint.request.SUBMIT";
  spans[0].trace_id = 0x1111;
  spans[0].span_id = 0x2222;
  spans[0].parent_id = 0;
  spans[0].start_us = 100;
  spans[0].dur_us = 50;
  spans[0].pid = 7;
  spans[0].tid = 1;
  spans[1].name = "campaign.run";
  spans[1].trace_id = 0x1111;
  spans[1].span_id = 0x3333;
  spans[1].parent_id = 0x2222;
  spans[1].start_us = 120;
  spans[1].dur_us = 900;
  spans[1].pid = 7;
  spans[1].tid = 2;
  spans[1].open = true;
  return spans;
}

TEST(TraceIo, WireTextRoundTripsExactly) {
  const std::vector<TraceSpan> spans = sample_spans();
  const std::string text = trace_spans_to_text(spans);
  const std::vector<TraceSpan> back = parse_trace_spans_text(text);
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].name, spans[i].name);
    EXPECT_EQ(back[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(back[i].span_id, spans[i].span_id);
    EXPECT_EQ(back[i].parent_id, spans[i].parent_id);
    EXPECT_EQ(back[i].start_us, spans[i].start_us);
    EXPECT_EQ(back[i].dur_us, spans[i].dur_us);
    EXPECT_EQ(back[i].pid, spans[i].pid);
    EXPECT_EQ(back[i].tid, spans[i].tid);
    EXPECT_EQ(back[i].open, spans[i].open);
  }
  // And the text form itself is stable: serialize(parse(t)) == t.
  EXPECT_EQ(trace_spans_to_text(back), text);
}

TEST(TraceIo, ParseRejectsMalformedInput) {
  const std::string good = trace_spans_to_text(sample_spans());
  EXPECT_THROW(parse_trace_spans_text(""), CheckError);
  EXPECT_THROW(parse_trace_spans_text("emutile-trace v2\nend\n"), CheckError);
  // Truncation: missing the end marker.
  EXPECT_THROW(parse_trace_spans_text(good.substr(0, good.size() - 4)),
               CheckError);
  // A corrupted span line.
  std::string corrupt = good;
  corrupt.replace(corrupt.find("trace="), 6, "trXce=");
  EXPECT_THROW(parse_trace_spans_text(corrupt), CheckError);
  // Trailing content after end.
  EXPECT_THROW(parse_trace_spans_text(good + "extra\n"), CheckError);
}

TEST(TraceIo, ChromeJsonCarriesClosedSpansOnly) {
  const std::string json = trace_events_json(sample_spans());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"endpoint.request.SUBMIT\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The open campaign.run span is skipped — no defensible dur.
  EXPECT_EQ(json.find("\"campaign.run\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceIo, ShiftClampsAtZeroAndDedupKeepsFirst) {
  std::vector<TraceSpan> spans = sample_spans();
  shift_spans(spans, -200);
  EXPECT_EQ(spans[0].start_us, 0u);   // 100 - 200 clamps
  EXPECT_EQ(spans[1].start_us, 0u);   // 120 - 200 clamps
  shift_spans(spans, 40);
  EXPECT_EQ(spans[0].start_us, 40u);

  std::vector<TraceSpan> dup = sample_spans();
  dup.push_back(dup[0]);
  dup.back().name = "impostor";
  const std::vector<TraceSpan> unique = dedup_spans(std::move(dup));
  ASSERT_EQ(unique.size(), 2u);
  EXPECT_EQ(unique[0].name, "endpoint.request.SUBMIT");  // first kept
}

// ------------------------------------------------------------- determinism ---

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.add_design("rand-t", [](std::uint64_t s) {
    return test::make_random_netlist(40, s);
  });
  spec.error_kinds = {ErrorKind::kWrongPolarity};
  spec.sessions_per_scenario = 1;
  spec.master_seed = 4242;
  spec.num_patterns = 64;
  spec.tilings[0].num_tiles = 6;
  spec.tilings[0].target_overhead = 0.30;
  return spec;
}

TEST(TraceDeterminism, ReportBytesAreIdenticalWithAndWithoutActiveTracing) {
  CampaignOptions options;
  options.num_threads = 2;

  // Run inside a foreign active span with the global tracer dirty...
  Tracer::global().reset();
  std::string traced_json, traced_csv;
  {
    const ScopedSpan ambient(Tracer::global(), "test.ambient");
    const CampaignReport report = run_campaign(tiny_spec(), options);
    traced_json = report.to_json();
    traced_csv = report.to_csv();
  }
  EXPECT_FALSE(Tracer::global().collect().empty());

  // ...and with the tracer silent/empty. Bytes must match exactly: traces
  // are sidecars and never feed the deterministic emitters.
  Tracer::global().reset();
  const CampaignReport quiet = run_campaign(tiny_spec(), options);
  EXPECT_EQ(quiet.to_json(), traced_json);
  EXPECT_EQ(quiet.to_csv(), traced_csv);
  Tracer::global().reset();
}

}  // namespace
}  // namespace emutile
