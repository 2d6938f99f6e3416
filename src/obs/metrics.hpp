#pragma once
/// \file metrics.hpp
/// Process-wide observability: a lock-striped registry of named counters,
/// gauges, and log-bucketed latency histograms.
///
/// Design constraints, in order:
///   record is O(1) and lock-free   every hot-path operation (counter add,
///                                  gauge set, histogram record) is a relaxed
///                                  atomic on a pre-resolved handle — workers
///                                  never contend on a registry lock while
///                                  recording
///   lookups are striped            metric resolution (name -> handle) takes
///                                  one of kStripes mutexes chosen by name
///                                  hash, so concurrent first-touch lookups
///                                  from many threads spread instead of
///                                  serializing
///   handles are stable             a Counter&/Gauge&/Histogram& stays valid
///                                  for the registry's lifetime (metrics are
///                                  never erased; reset() zeroes values), so
///                                  call sites may cache references
///   snapshots are mergeable        MetricsSnapshot round-trips exactly
///                                  through the text exposition (all values
///                                  integral), and merge() adds counters and
///                                  bucket counts — a fleet-merged snapshot
///                                  equals the sum of its instance snapshots,
///                                  the same contract CampaignReport::merge
///                                  keeps for shard reports
///   reports never read metrics     metrics never feed the report
///                                  emitters, so deterministic artifacts
///                                  do not depend on what was recorded
///
/// The histogram is the cheap log-scale kind (cf. joernblog histogram.c):
/// values 0..7 get exact buckets, larger values land in one of 8 sub-buckets
/// per power of two, so a bucket's width is 1/8 of its magnitude and any
/// quantile read off the buckets is within ~6% of the exact order statistic
/// — plenty for latency percentiles, at 8 bytes a bucket and an O(1),
/// branch-light record.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emutile {

// ---- recording primitives --------------------------------------------------

/// Monotonically increasing event count.
class MetricCounter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight campaigns). Signed: concurrent
/// add/sub pairs may transiently dip below the level a sequential observer
/// would see.
class MetricGauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta = 1) { add(-delta); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed distribution of non-negative integer samples (microseconds,
/// work units, depths). O(1) lock-free record; exact count/sum/min/max;
/// quantiles read from the buckets with bounded relative error (bucket width
/// is 1/8 of the value's magnitude).
class MetricHistogram {
 public:
  /// 3 mantissa bits -> 8 sub-buckets per power of two.
  static constexpr std::uint32_t kSubBits = 3;
  static constexpr std::uint32_t kNumBuckets =
      ((64 - kSubBits + 1) << kSubBits);  // index of 2^63's top bucket + 1

  /// Bucket index of `v`: exact below 8, (exponent, top-3-mantissa-bits)
  /// above. Adjacent values share or neighbor buckets; indices are dense.
  [[nodiscard]] static std::uint32_t bucket_index(std::uint64_t v) {
    if (v < (1ull << kSubBits)) return static_cast<std::uint32_t>(v);
    const auto msb = static_cast<std::uint32_t>(63 - __builtin_clzll(v));
    const auto sub = static_cast<std::uint32_t>(
        (v >> (msb - kSubBits)) & ((1ull << kSubBits) - 1));
    return ((msb - kSubBits + 1) << kSubBits) | sub;
  }

  /// Inclusive value range [lower, upper] covered by bucket `index`.
  static void bucket_bounds(std::uint32_t index, std::uint64_t& lower,
                            std::uint64_t& upper) {
    if (index < (1u << kSubBits)) {
      lower = upper = index;
      return;
    }
    const std::uint32_t msb = (index >> kSubBits) + kSubBits - 1;
    const std::uint64_t sub = index & ((1u << kSubBits) - 1);
    const std::uint64_t width = 1ull << (msb - kSubBits);
    lower = (1ull << msb) + sub * width;
    upper = lower + width - 1;
  }

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::uint64_t min() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == kEmptyMin ? 0 : v;
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile `q` in [0, 1] (bucket midpoint; 0 when empty).
  /// Within ~6% relative error of the exact order statistic.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  void reset();

  /// Raw bucket counts (index, count), sparse, for snapshotting.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>>
  nonzero_buckets() const;

 private:
  static constexpr std::uint64_t kEmptyMin = ~0ull;
  static void atomic_min(std::atomic<std::uint64_t>& target,
                         std::uint64_t v) {
    std::uint64_t cur = target.load(std::memory_order_relaxed);
    while (v < cur &&
           !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& target,
                         std::uint64_t v) {
    std::uint64_t cur = target.load(std::memory_order_relaxed);
    while (v > cur &&
           !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kEmptyMin};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII latency probe: records elapsed microseconds into a histogram when it
/// leaves scope. `dismiss()` drops the measurement (e.g. uninteresting path).
class ScopedLatency {
 public:
  explicit ScopedLatency(MetricHistogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (hist_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    hist_->record(us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count()));
  }
  void dismiss() { hist_ = nullptr; }

 private:
  MetricHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// ---- snapshots (the wire/merge form) ---------------------------------------

/// Point-in-time copy of one histogram, sparse, integral throughout — the
/// text exposition round-trips it exactly, so merged snapshots equal sums.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful iff count > 0
  std::uint64_t max = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  ///< sorted

  [[nodiscard]] std::uint64_t quantile(double q) const;
  void merge(const HistogramSnapshot& other);
};

/// Everything a registry knows, sorted by name (stable exposition order).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Add `other` into this snapshot: counters/gauges/bucket counts add,
  /// min/max combine. The fleet-merge primitive.
  void merge(const MetricsSnapshot& other);

  /// Stable text exposition, one series per line:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   hist <name> count=<n> sum=<s> min=<m> max=<M> p50=<v> p90=<v>
  ///        p99=<v> buckets=<i>:<c>,<i>:<c>,...
  /// The pNN fields are derived (informational); parse_metrics_text reads
  /// them back from the buckets, so round-trips are exact.
  [[nodiscard]] std::string to_text() const;

  /// The same content as JSON (percentiles included per histogram).
  [[nodiscard]] std::string to_json() const;
};

/// Parse the to_text() exposition back into a snapshot. Throws CheckError on
/// malformed input. parse(to_text(s)) == s field-for-field.
[[nodiscard]] MetricsSnapshot parse_metrics_text(const std::string& text);

// ---- the registry ----------------------------------------------------------

/// Named metrics, created on first touch, addresses stable forever. Lookup
/// is striped by name hash; each stripe has its own mutex and maps, so
/// first-touch resolution from many threads rarely collides. Recording on a
/// resolved handle never takes a lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] MetricCounter& counter(std::string_view name);
  [[nodiscard]] MetricGauge& gauge(std::string_view name);
  [[nodiscard]] MetricHistogram& histogram(std::string_view name);

  /// Copy every metric into a mergeable snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every value (handles stay valid). For tests and benches.
  void reset();

  /// The process-wide registry every subsystem records into.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
        histograms;
  };
  [[nodiscard]] Stripe& stripe_for(std::string_view name) {
    return stripes_[std::hash<std::string_view>{}(name) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace emutile
