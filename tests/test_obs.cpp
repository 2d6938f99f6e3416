// Observability-layer tests: the log-bucketed histogram (bucket math,
// quantile accuracy against the exact percentiles of util/stats.hpp), the
// lock-striped metrics registry under a concurrent hammer, the text/JSON
// expositions (exact text round-trip through parse_metrics_text), snapshot
// merge parity (merged == sum of parts — the fleet-merge contract), and the
// event journal's JSONL output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace emutile {
namespace {

namespace fs = std::filesystem;

using test::ScratchDir;

// -------------------------------------------------------------- histogram ---

TEST(MetricHistogram, BucketIndexIsMonotoneAndBoundsAreTight) {
  // Every value must land inside its own bucket's [lower, upper] range, and
  // the index must never decrease as values grow.
  std::uint32_t last_index = 0;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                          1000ull, 123456ull, 1ull << 40, ~0ull}) {
    const std::uint32_t index = MetricHistogram::bucket_index(v);
    ASSERT_LT(index, MetricHistogram::kNumBuckets) << "value " << v;
    EXPECT_GE(index, last_index) << "value " << v;
    last_index = index;
    std::uint64_t lower = 0, upper = 0;
    MetricHistogram::bucket_bounds(index, lower, upper);
    EXPECT_LE(lower, v) << "value " << v;
    EXPECT_GE(upper, v) << "value " << v;
  }
  // Values below 2^kSubBits get exact buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    std::uint64_t lower = 0, upper = 0;
    MetricHistogram::bucket_bounds(MetricHistogram::bucket_index(v), lower,
                                   upper);
    EXPECT_EQ(lower, v);
    EXPECT_EQ(upper, v);
  }
}

TEST(MetricHistogram, CountSumMinMaxAreExact) {
  MetricHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : {5ull, 100ull, 9000ull, 3ull, 77ull}) {
    h.record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 9000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(MetricHistogram, QuantilesTrackExactPercentilesWithinBucketError) {
  // Log-uniform samples over ~5 decades — the shape latency distributions
  // actually have. The histogram's bucket width is 1/8 of the value's
  // magnitude, so any quantile it reports must sit within ~12.5% of the
  // exact order statistic computed by util/stats.hpp percentile().
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exponent(0.0, 5.0);
  MetricHistogram h;
  std::vector<double> xs;
  for (int i = 0; i < 20'000; ++i) {
    const auto v =
        static_cast<std::uint64_t>(std::pow(10.0, exponent(rng)));
    h.record(v);
    xs.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = percentile(xs, 100.0 * q);
    const auto approx = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(approx, exact, 0.125 * exact + 1.0)
        << "quantile " << q << ": histogram " << approx << " vs exact "
        << exact;
  }
}

// --------------------------------------------------------------- registry ---

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  MetricCounter& c1 = reg.counter("a.b");
  MetricCounter& c2 = reg.counter("a.b");
  EXPECT_EQ(&c1, &c2);  // same name, same metric
  c1.add(3);
  EXPECT_EQ(reg.counter("a.b").value(), 3u);
  reg.gauge("g").set(-7);
  EXPECT_EQ(reg.gauge("g").value(), -7);
  reg.histogram("h").record(42);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.b"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  reg.reset();
  EXPECT_EQ(reg.counter("a.b").value(), 0u);  // zeroed, not erased
  EXPECT_EQ(&reg.counter("a.b"), &c1);
}

TEST(MetricsRegistry, ConcurrentHammerLosesNothing) {
  // Many threads hitting overlapping metric names: first-touch creation
  // races, counter increments, and histogram records must all survive
  // without losing a single event.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        reg.counter("hammer.shared").add();
        reg.counter("hammer.t" + std::to_string(t)).add();
        reg.histogram("hammer.hist").record(
            static_cast<std::uint64_t>(i % 1000));
        reg.gauge("hammer.gauge").add();
        reg.gauge("hammer.gauge").sub();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hammer.shared"),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(snap.counters.at("hammer.t" + std::to_string(t)),
              static_cast<std::uint64_t>(kOpsPerThread));
  EXPECT_EQ(snap.histograms.at("hammer.hist").count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.gauges.at("hammer.gauge"), 0);
  // Bucket counts are exact too: their total equals the record count.
  std::uint64_t bucket_total = 0;
  for (const auto& [index, c] : snap.histograms.at("hammer.hist").buckets)
    bucket_total += c;
  EXPECT_EQ(bucket_total, snap.histograms.at("hammer.hist").count);
}

// ------------------------------------------------- exposition & round-trip ---

TEST(MetricsSnapshot, TextRoundTripsExactly) {
  MetricsRegistry reg;
  reg.counter("requests.total").add(17);
  reg.gauge("queue.depth").set(-2);
  MetricHistogram& h = reg.histogram("latency_us");
  for (std::uint64_t v : {3ull, 900ull, 4096ull, 4100ull, 1ull << 33})
    h.record(v);

  const MetricsSnapshot snap = reg.snapshot();
  const std::string text = snap.to_text();
  const MetricsSnapshot parsed = parse_metrics_text(text);

  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.size(), snap.histograms.size());
  const HistogramSnapshot& a = snap.histograms.at("latency_us");
  const HistogramSnapshot& b = parsed.histograms.at("latency_us");
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  // And the exposition itself is a fixed point: parse -> print -> same text.
  EXPECT_EQ(parsed.to_text(), text);
}

TEST(MetricsSnapshot, JsonCarriesEverySeries) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(9);
  reg.histogram("h").record(1234);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"c\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
}

TEST(MetricsSnapshot, ParseRejectsGarbage) {
  EXPECT_THROW(static_cast<void>(parse_metrics_text("bogus line here\n")),
               CheckError);
  EXPECT_THROW(static_cast<void>(parse_metrics_text("counter only_name\n")),
               CheckError);
}

TEST(MetricsSnapshot, MergeEqualsSumOfParts) {
  // The fleet-merge contract: merging N instance snapshots yields exactly
  // the snapshot of an imaginary single instance that saw all the traffic.
  MetricsRegistry all;     // the imaginary combined instance
  MetricsRegistry parts[3];
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> value(0, 1'000'000);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t v = value(rng);
      parts[p].counter("events").add();
      all.counter("events").add();
      parts[p].histogram("latency").record(v);
      all.histogram("latency").record(v);
    }
    parts[p].counter("instance.p" + std::to_string(p)).add(1 + p);
    all.counter("instance.p" + std::to_string(p)).add(1 + p);
  }

  // Merge through the *text exposition*, exactly as the coordinator does.
  MetricsSnapshot merged;
  for (const MetricsRegistry& part : parts)
    merged.merge(parse_metrics_text(part.snapshot().to_text()));

  const MetricsSnapshot expected = all.snapshot();
  EXPECT_EQ(merged.counters, expected.counters);
  const HistogramSnapshot& m = merged.histograms.at("latency");
  const HistogramSnapshot& e = expected.histograms.at("latency");
  EXPECT_EQ(m.count, e.count);
  EXPECT_EQ(m.sum, e.sum);
  EXPECT_EQ(m.min, e.min);
  EXPECT_EQ(m.max, e.max);
  EXPECT_EQ(m.buckets, e.buckets);
  EXPECT_EQ(m.quantile(0.9), e.quantile(0.9));
}

// ---------------------------------------------------------- event journal ---

TEST(EventJournal, WritesOneJsonObjectPerLineWithMonotonicTimestamps) {
  ScratchDir scratch("journal");
  const fs::path path = scratch.path / "out" / "c1" / "events.jsonl";
  {
    EventJournal journal(path, "c1");
    ASSERT_TRUE(journal.ok());
    journal.record("submit", {{"priority", 3}});
    journal.record("session-start", {{"session", 0}});
    journal.record("finalize", {{"state", "finished"}});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t last_t = 0;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"campaign\":\"c1\""), std::string::npos) << line;
    const std::size_t t_pos = line.find("\"t_us\":");
    ASSERT_NE(t_pos, std::string::npos) << line;
    const std::uint64_t t = std::strtoull(line.c_str() + t_pos + 7, nullptr, 10);
    EXPECT_GE(t, last_t);
    last_t = t;
  }
  EXPECT_EQ(lines, 3);
}

TEST(EventJournal, EscapesStringsAndSurvivesUnwritablePath) {
  ScratchDir scratch("journal-esc");
  const fs::path path = scratch.path / "events.jsonl";
  {
    EventJournal journal(path, "c2");
    journal.record("note", {{"text", "quote\" slash\\ and\nnewline"}});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("quote\\\" slash\\\\ and\\nnewline"), std::string::npos)
      << line;

  // A journal that cannot open is inert, never throwing. (A regular file
  // where a parent directory should be makes the path truly unopenable —
  // the constructor otherwise creates missing parents.)
  std::ofstream(scratch.path / "blocker") << "not a directory";
  EventJournal dead(scratch.path / "blocker" / "events.jsonl", "c3");
  EXPECT_FALSE(dead.ok());
  dead.record("ignored");
}

TEST(EventJournal, RecordsCarrySchemaVersionAndTraceId) {
  ScratchDir scratch("journal-schema");
  const fs::path path = scratch.path / "events.jsonl";
  {
    EventJournal journal(path, "c9", "00c0ffee00c0ffee");
    journal.record("submit");
  }
  {
    EventJournal journal(path, "c9");  // no trace: the field stays, empty
    journal.record("finalize");
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("{\"schema\":1,\"t_us\":", 0), 0u) << line;
  EXPECT_NE(line.find("\"trace_id\":\"00c0ffee00c0ffee\""), std::string::npos)
      << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"schema\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"trace_id\":\"\""), std::string::npos) << line;
}

TEST(MetricsSnapshot, ParseRejectsStructuredCorruption) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW(static_cast<void>(parse_metrics_text(text)), CheckError)
        << text;
  };
  // Every numeric field goes through the strict parser: digits only, full
  // consume, no overflow. istream extraction would wrap or zero these.
  reject("counter c 99999999999999999999\n");       // > 2^64-1
  reject("counter c -5\n");                          // counters are unsigned
  reject("counter c 5 extra\n");                     // trailing token
  reject("counter c 0x10\n");                        // no hex
  reject("counter c\n");                             // truncated
  reject("gauge g 9223372036854775808\n");           // > int64 max magnitude
  reject("hist h count=1 sum=2\n");                  // truncated hist line
  reject("hist h count=1 sum=2 min=2 max=2 p50=2 p90=2 p99=2\n");  // no buckets
  reject(
      "hist h count=1 sum=2 min=2 max=2 p50=2 p90=2 p99=2 buckets=5:\n");
  reject(
      "hist h count=1 sum=2 min=2 max=2 p50=2 p90=2 p99=2 buckets=9999:1\n");
  reject(
      "hist h count=2 sum=4 min=2 max=2 p50=2 p90=2 p99=2 buckets=4:1,4:1\n");
  reject(
      "hist h count=2 sum=4 min=1 max=3 p50=2 p90=2 p99=2 buckets=3:1,1:1\n");
  // Duplicate series would silently lose a shard's worth of data on merge.
  reject("counter dup 1\ncounter dup 2\n");
  reject("gauge dup 1\ngauge dup 2\n");
  reject(
      "hist dup count=1 sum=2 min=2 max=2 p50=2 p90=2 p99=2 buckets=2:1\n"
      "hist dup count=1 sum=2 min=2 max=2 p50=2 p90=2 p99=2 buckets=2:1\n");

  // The in-range forms of the same lines parse fine.
  const MetricsSnapshot ok = parse_metrics_text(
      "counter c 18446744073709551615\n"
      "gauge g -9223372036854775807\n"
      "hist h count=2 sum=4 min=1 max=3 p50=2 p90=2 p99=2 buckets=1:1,3:1\n");
  EXPECT_EQ(ok.counters.at("c"), 18446744073709551615ull);
  EXPECT_EQ(ok.gauges.at("g"), -9223372036854775807ll);
  EXPECT_EQ(ok.histograms.at("h").buckets.size(), 2u);
}

}  // namespace
}  // namespace emutile
