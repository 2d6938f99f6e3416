#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "campaign/campaign_spec_io.hpp"

namespace bench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = n - samples_beyond(n, q);  // 1-based, >= 1
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  // ceil(q * n) computed on integers where possible: q is one of a handful
  // of decimal fractions, so round the product before taking the ceiling
  // to keep 0.9 * 100 from landing on 90.00000000000001.
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact * 1e9) / 1e9;
  const auto rank = static_cast<std::size_t>(std::ceil(rounded));
  return rank >= n ? 0 : n - rank;
}

std::size_t min_samples_for_tail(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kMinTailSamples) ++n;
  return n;
}

std::string layer_of(const std::string& name) {
  const auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (name == "bench.session" || name == "session.run" ||
      name == "cache.lookup")
    return "campaign";
  if (name == "session.phase.build") return "core";
  if (name == "session.phase.detect" || name == "session.phase.verify")
    return "sim";
  if (starts("session.phase.") || starts("localizer.")) return "debug";
  if (starts("place.")) return "place";
  if (starts("route.")) return "route";
  if (starts("endpoint.") || starts("scheduler.") || name == "campaign.run")
    return "service";
  if (starts("orchestrate.")) return "orchestrator";
  if (starts("bench.")) return "bench";
  return "other";
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<emutile::TraceSpan>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const emutile::TraceSpan*>>
      children;
  for (const emutile::TraceSpan& s : spans)
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);

  std::map<std::string, double> self;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (const emutile::TraceSpan& s : spans) {
    const std::uint64_t begin = s.start_us;
    const std::uint64_t end = s.start_us + s.dur_us;
    cover.clear();
    if (const auto it = children.find(s.span_id); it != children.end()) {
      for (const emutile::TraceSpan* c : it->second) {
        const std::uint64_t cb = std::max(begin, c->start_us);
        const std::uint64_t ce = std::min(end, c->start_us + c->dur_us);
        if (ce > cb) cover.emplace_back(cb, ce);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = begin;
    for (const auto& [cb, ce] : cover) {
      const std::uint64_t from = std::max(cb, reach);
      if (ce > from) {
        covered += ce - from;
        reach = ce;
      }
    }
    self[layer_of(s.name)] += static_cast<double>(s.dur_us - covered) * 1e-6;
  }
  return self;
}

void Digest::add(const std::string& piece) {
  // Chain: fold the previous state into the next piece's hash so order and
  // piece boundaries both matter.
  state_ = emutile::fnv1a64(emutile::format_u64_hex(state_) + "|" + piece);
}

std::string Digest::hex() const { return emutile::format_u64_hex(state_); }

void Tally::ok() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
}

void Tally::fail(const std::string& reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  ++failed_;
  ++reasons_[reason];
}

std::size_t Tally::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::size_t Tally::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

double Tally::failed_frac() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::map<std::string, std::size_t> Tally::reasons() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return reasons_;
}

std::string result_json_line(bool correct, std::size_t attempted,
                             std::size_t failed,
                             const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) correct = false;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? emutile::format_double_exact(m.value)
                                  : std::string("0"))
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace bench
