#pragma once
/// \file stats.hpp
/// Small statistics helpers used by the benchmark harnesses.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace emutile {

/// Streaming accumulator: count / mean / min / max / stddev.
///
/// The internal state is the raw power sums (n, Σx, Σx²), so add() and
/// merge() are plain double additions. Floating-point addition of exactly
/// representable values is exact, so for integral-valued samples below 2^26
/// or so (work-unit counts, suspect counts, iteration counts — everything
/// the deterministic campaign report aggregates) every partial sum is exact
/// and ANY add/merge order yields bit-identical state. That associativity is
/// what lets merged shard reports reproduce the unsharded run byte for byte
/// even when work stealing splits a shard at an arbitrary session boundary.
/// (A Welford/Chan formulation is stabler for wide-spread float samples but
/// rounds differently under sequential add vs pairwise merge, which breaks
/// the byte contract at some split points.)
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    sum_sq_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Fold another accumulator into this one, as if both sample streams had
  /// been added here. Used to merge per-shard campaign reports; exactly
  /// associative and commutative whenever the sums are exact (see above).
  void merge(const Accumulator& other) {
    if (other.n_ == 0) return;
    n_ += other.n_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Reconstruct an accumulator from its exact internal state (the values
  /// the accessors report). With round-trip-exact doubles this restores the
  /// accumulator bit-for-bit, so a merge of restored accumulators equals a
  /// merge of the originals — the basis of the shard-report wire format.
  [[nodiscard]] static Accumulator from_parts(std::size_t n, double sum,
                                              double sum_sq, double min,
                                              double max) {
    Accumulator a;
    if (n == 0) return a;
    a.n_ = n;
    a.sum_ = sum;
    a.sum_sq_ = sum_sq;
    a.min_ = min;
    a.max_ = max;
    return a;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }       ///< raw Σx
  [[nodiscard]] double sum_sq() const { return sum_sq_; }  ///< raw Σx²
  [[nodiscard]] double mean() const {
    return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double variance() const {
    if (n_ < 2) return 0.0;
    const double n = static_cast<double>(n_);
    // Σ(x-x̄)² = Σx² - (Σx)²/n; clamp the cancellation residue at zero.
    const double m2 = std::max(0.0, sum_sq_ - sum_ * sum_ / n);
    return m2 / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Median of a sample (copies; fine for bench-sized data).
[[nodiscard]] inline double median(std::vector<double> xs) {
  EMUTILE_CHECK(!xs.empty(), "median of empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Arithmetic mean of a sample.
[[nodiscard]] inline double mean(const std::vector<double>& xs) {
  EMUTILE_CHECK(!xs.empty(), "mean of empty sample");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Percentile of a sample with linear interpolation between closest ranks
/// (numpy's default `linear` / inclusive convention: rank = p/100 * (n-1)).
/// `p` is in [0, 100]; p=50 matches median(). Copies; fine for bench- and
/// campaign-sized data.
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  EMUTILE_CHECK(!xs.empty(), "percentile of empty sample");
  EMUTILE_CHECK(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]: " << p);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= xs.size()) return xs.back();
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

// ---- interval estimators ---------------------------------------------------
// The campaign layers treat per-scenario aggregates as sample estimates and
// spend replicas where the intervals are widest (see adaptive_driver.hpp), so
// the estimators live here next to the Accumulator they read from.

/// A two-sided confidence interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] double half_width() const { return 0.5 * (hi - lo); }
};

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.2e-9). `p` must be in (0, 1).
[[nodiscard]] inline double normal_quantile(double p) {
  EMUTILE_CHECK(p > 0.0 && p < 1.0, "normal_quantile needs p in (0,1): " << p);
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00, 2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

/// Inverse Student-t CDF with `df` degrees of freedom. Exact for df 1 and 2;
/// Cornish–Fisher expansion off the normal quantile otherwise (error < 1e-3
/// for df >= 3 at the confidence levels interval estimation uses).
[[nodiscard]] inline double student_t_quantile(std::size_t df, double p) {
  EMUTILE_CHECK(df >= 1, "student_t_quantile needs df >= 1");
  EMUTILE_CHECK(p > 0.0 && p < 1.0,
                "student_t_quantile needs p in (0,1): " << p);
  if (df == 1) return std::tan(3.14159265358979323846 * (p - 0.5));
  if (df == 2) return (2.0 * p - 1.0) * std::sqrt(2.0 / (4.0 * p * (1.0 - p)));
  const double z = normal_quantile(p);
  const double z2 = z * z;
  const double v = static_cast<double>(df);
  const double g1 = (z2 + 1.0) * z / 4.0;
  const double g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0;
  const double g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0;
  const double g4 =
      ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z /
      92160.0;
  return z + g1 / v + g2 / (v * v) + g3 / (v * v * v) + g4 / (v * v * v * v);
}

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials` at the given two-sided confidence. Unlike the Wald interval it
/// stays inside [0, 1] and behaves at p-hat 0 or 1 — exactly the regime the
/// campaign detection/correction rates live in. Zero trials means "nothing
/// observed": the interval is the whole of [0, 1] (half-width 0.5, the
/// widest a proportion interval can be), which ranks unvisited scenarios
/// first in adaptive allocation without any infinity special-casing.
[[nodiscard]] inline Interval wilson_interval(std::size_t successes,
                                              std::size_t trials,
                                              double confidence = 0.95) {
  EMUTILE_CHECK(successes <= trials,
                "wilson_interval: " << successes << " successes out of "
                                    << trials << " trials");
  EMUTILE_CHECK(confidence > 0.0 && confidence < 1.0,
                "confidence must be in (0,1): " << confidence);
  if (trials == 0) return Interval{0.0, 1.0};
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2n = z * z / n;
  const double denom = 1.0 + z2n;
  const double center = (phat + z2n / 2.0) / denom;
  const double hw = z / denom *
                    std::sqrt(phat * (1.0 - phat) / n + z2n / (4.0 * n));
  // At p-hat 0 the lower bound is exactly 0 (and at p-hat 1 the upper bound
  // exactly 1); computed, they carry float residue such as 5.55e-17.
  return Interval{successes == 0 ? 0.0 : std::max(0.0, center - hw),
                  successes == trials ? 1.0 : std::min(1.0, center + hw)};
}

/// Student-t confidence interval for the mean of the sample an Accumulator
/// has seen. Fewer than two samples carry no variance information: the
/// interval is (-inf, +inf).
[[nodiscard]] inline Interval mean_interval(const Accumulator& acc,
                                            double confidence = 0.95) {
  EMUTILE_CHECK(confidence > 0.0 && confidence < 1.0,
                "confidence must be in (0,1): " << confidence);
  if (acc.count() < 2) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return Interval{-inf, inf};
  }
  const double t = student_t_quantile(acc.count() - 1, 0.5 + confidence / 2.0);
  const double hw =
      t * acc.stddev() / std::sqrt(static_cast<double>(acc.count()));
  return Interval{acc.mean() - hw, acc.mean() + hw};
}

/// Geometric mean (all samples must be > 0).
[[nodiscard]] inline double geomean(const std::vector<double>& xs) {
  EMUTILE_CHECK(!xs.empty(), "geomean of empty sample");
  double s = 0.0;
  for (double x : xs) {
    EMUTILE_CHECK(x > 0.0, "geomean requires positive samples");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

}  // namespace emutile
