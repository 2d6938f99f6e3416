#include "obs/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/parse_number.hpp"

namespace emutile {

// ---- MetricHistogram -------------------------------------------------------

std::uint64_t MetricHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the order statistic we want (1-based, nearest-rank).
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      std::uint64_t lower = 0, upper = 0;
      bucket_bounds(i, lower, upper);
      return lower + (upper - lower) / 2;
    }
  }
  return max();
}

void MetricHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
MetricHistogram::nonzero_buckets() const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) out.emplace_back(i, c);
  }
  return out;
}

// ---- HistogramSnapshot -----------------------------------------------------

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (const auto& [index, c] : buckets) {
    seen += c;
    if (seen >= rank) {
      std::uint64_t lower = 0, upper = 0;
      MetricHistogram::bucket_bounds(index, lower, upper);
      return lower + (upper - lower) / 2;
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  // Both bucket lists are sorted by index; merge like sorted sequences.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0, b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b == other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a == buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

// ---- MetricsSnapshot -------------------------------------------------------

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, hist] : other.histograms)
    histograms[name].merge(hist);
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters)
    os << "counter " << name << ' ' << value << '\n';
  for (const auto& [name, value] : gauges)
    os << "gauge " << name << ' ' << value << '\n';
  for (const auto& [name, h] : histograms) {
    os << "hist " << name << " count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " max=" << h.max << " p50=" << h.quantile(0.50)
       << " p90=" << h.quantile(0.90) << " p99=" << h.quantile(0.99)
       << " buckets=";
    bool first = true;
    for (const auto& [index, c] : h.buckets) {
      if (!first) os << ',';
      first = false;
      os << index << ':' << c;
    }
    os << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"p50\": " << h.quantile(0.50)
       << ", \"p90\": " << h.quantile(0.90) << ", \"p99\": " << h.quantile(0.99)
       << ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [index, c] : h.buckets) {
      os << (bfirst ? "" : ", ") << '[' << index << ", " << c << ']';
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

namespace {

/// The wire exposition may arrive corrupted from a peer, so every numeric
/// field is parsed strictly and fails as a CheckError naming the line.
std::uint64_t parse_u64_strict(const std::string& digits,
                               const std::string& line) {
  const auto value = parse_number<std::uint64_t>(digits);
  EMUTILE_CHECK(value.has_value(),
                "bad unsigned value '" << digits << "' in metrics line: "
                                       << line);
  return *value;
}

}  // namespace

MetricsSnapshot parse_metrics_text(const std::string& text) {
  MetricsSnapshot snap;
  std::istringstream in(text);
  std::string line;
  const auto keyed = [](const std::string& token, const char* key,
                        const std::string& line) {
    const std::size_t klen = std::strlen(key);
    EMUTILE_CHECK(token.compare(0, klen, key) == 0 && token.size() > klen &&
                      token[klen] == '=',
                  "metrics line: expected '" << key << "=...', got '" << token
                                             << "'");
    return parse_u64_strict(token.substr(klen + 1), line);
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind, name;
    ls >> kind >> name;
    EMUTILE_CHECK(!name.empty(), "metrics line missing a name: " << line);
    std::string tok;
    if (kind == "counter") {
      // Read the value as a token, not via istream's uint64 extraction: the
      // stream form silently wraps "-5" to 2^64-5 instead of rejecting it.
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated counter line: " << line);
      const std::uint64_t value = parse_u64_strict(tok, line);
      EMUTILE_CHECK(!(ls >> tok), "trailing token in counter line: " << line);
      EMUTILE_CHECK(snap.counters.emplace(name, value).second,
                    "duplicate counter series: " << name);
    } else if (kind == "gauge") {
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated gauge line: " << line);
      const bool negative = tok[0] == '-';
      const std::uint64_t magnitude =
          parse_u64_strict(negative ? tok.substr(1) : tok, line);
      EMUTILE_CHECK(magnitude <= static_cast<std::uint64_t>(
                                     std::numeric_limits<std::int64_t>::max()),
                    "overflowing gauge value in: " << line);
      const auto value = negative ? -static_cast<std::int64_t>(magnitude)
                                  : static_cast<std::int64_t>(magnitude);
      EMUTILE_CHECK(!(ls >> tok), "trailing token in gauge line: " << line);
      EMUTILE_CHECK(snap.gauges.emplace(name, value).second,
                    "duplicate gauge series: " << name);
    } else if (kind == "hist") {
      HistogramSnapshot h;
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated hist line: " << line);
      h.count = keyed(tok, "count", line);
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated hist line: " << line);
      h.sum = keyed(tok, "sum", line);
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated hist line: " << line);
      h.min = keyed(tok, "min", line);
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated hist line: " << line);
      h.max = keyed(tok, "max", line);
      // p50/p90/p99 are derived (recomputed from the buckets on demand) but
      // their presence is part of the format — a missing one means the line
      // was truncated, not that the field was optional.
      for (const char* q : {"p50", "p90", "p99"}) {
        EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                      "truncated hist line: " << line);
        static_cast<void>(keyed(tok, q, line));
      }
      EMUTILE_CHECK(static_cast<bool>(ls >> tok),
                    "truncated hist line: " << line);
      EMUTILE_CHECK(tok.rfind("buckets=", 0) == 0,
                    "hist line missing buckets=: " << line);
      std::string list = tok.substr(std::strlen("buckets="));
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t colon = list.find(':', pos);
        EMUTILE_CHECK(colon != std::string::npos,
                      "bad bucket entry in: " << line);
        std::size_t comma = list.find(',', colon);
        if (comma == std::string::npos) comma = list.size();
        const std::uint64_t wide =
            parse_u64_strict(list.substr(pos, colon - pos), line);
        // An out-of-range index would hit undefined shifts in bucket_bounds
        // when a quantile is later read off the snapshot.
        EMUTILE_CHECK(wide < MetricHistogram::kNumBuckets,
                      "bucket index out of range in: " << line);
        const auto index = static_cast<std::uint32_t>(wide);
        const std::uint64_t c =
            parse_u64_strict(list.substr(colon + 1, comma - colon - 1), line);
        EMUTILE_CHECK(h.buckets.empty() || index > h.buckets.back().first,
                      "bucket indices not ascending in: " << line);
        h.buckets.emplace_back(index, c);
        pos = comma + 1;
      }
      // (No bucket-sum == count cross-check: a snapshot taken while
      // recorders are mid-flight is transiently skewed — relaxed atomics —
      // and the live console parses exactly such snapshots.)
      EMUTILE_CHECK(!(ls >> tok), "trailing token in hist line: " << line);
      EMUTILE_CHECK(snap.histograms.emplace(name, std::move(h)).second,
                    "duplicate hist series: " << name);
    } else {
      EMUTILE_CHECK(false, "unknown metrics line kind: " << kind);
    }
  }
  return snap;
}

// ---- MetricsRegistry -------------------------------------------------------

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  Stripe& s = stripe_for(name);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.counters.find(name);
  if (it == s.counters.end())
    it = s.counters
             .emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  return *it->second;
}

MetricGauge& MetricsRegistry::gauge(std::string_view name) {
  Stripe& s = stripe_for(name);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end())
    it = s.gauges.emplace(std::string(name), std::make_unique<MetricGauge>())
             .first;
  return *it->second;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name) {
  Stripe& s = stripe_for(name);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.histograms.find(name);
  if (it == s.histograms.end())
    it = s.histograms
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& [name, c] : s.counters) snap.counters[name] = c->value();
    for (const auto& [name, g] : s.gauges) snap.gauges[name] = g->value();
    for (const auto& [name, h] : s.histograms) {
      HistogramSnapshot& hs = snap.histograms[name];
      hs.buckets = h->nonzero_buckets();
      hs.count = h->count();
      hs.sum = h->sum();
      hs.min = h->min();
      hs.max = h->max();
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    for (auto& [name, c] : s.counters) c->reset();
    for (auto& [name, g] : s.gauges) g->reset();
    for (auto& [name, h] : s.histograms) h->reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace emutile
