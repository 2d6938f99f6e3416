#pragma once
/// \file ledger.hpp
/// Measurement helpers of the repository benchmark: the percentile rule,
/// span-tree self time per layer, the deterministic report digest, failure
/// accounting, and the one-line JSON result. Everything here is measured
/// from outside the library — it reads spans the program already records
/// and values its public calls return, and adds nothing to src/.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace bench {

/// Nearest-rank percentile (`q` in (0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Samples that lie strictly beyond the nearest-rank `q` percentile of `n`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: a percentile is reported only when at least this many
/// samples lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Smallest sample count at which percentile `q` satisfies the tail rule.
[[nodiscard]] std::size_t min_samples_for_tail(double q);

/// Layer (src/ module) a span name belongs to: the engine's
/// `session.phase.*` spans, the service, endpoint and coordinator spans, and
/// the synthesized `place.*` / `route.*` spans built from returned P&R
/// effort. `bench.session` wraps a run_campaign_session call (campaign);
/// the other `bench.*` spans are the harness's client side ("bench"), so
/// server-side layers never count a client's wait. Unknown names map to
/// "other".
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Self time (seconds) of every layer: each span's duration minus the part
/// of its interval that its children (spans naming it as parent) cover,
/// summed per layer_of(name). Children running in parallel count once —
/// coverage is the union of their intervals, clipped to the parent.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<emutile::TraceSpan>& spans);

/// Order-sensitive digest of the deterministic strings a workload produced
/// (FNV-1a chained over the pieces, rendered as 16 hex digits).
class Digest {
 public:
  void add(const std::string& piece);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Failure accounting behind `attempted` / `failed`: every operation the
/// benchmark starts is counted once, and each failure is tallied by reason
/// (failed or cancelled session, ERR reply, timeout, output mismatch).
/// Thread-safe.
class Tally {
 public:
  void ok();
  void fail(const std::string& reason);
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] double failed_frac() const;
  [[nodiscard]] std::map<std::string, std::size_t> reasons() const;

 private:
  mutable std::mutex mutex_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::size_t> reasons_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line the benchmark prints last: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A non-finite value makes the line
/// report correct=false (JSON has no NaN).
[[nodiscard]] std::string result_json_line(bool correct, std::size_t attempted,
                                           std::size_t failed,
                                           const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace bench
