/// Perf-regression comparator for the CI `perf` lane.
///
///   $ perf_compare <baseline.json> <current.json> [tolerance]
///
/// Both files are bench MetricsJson documents (see bench/bench_common.hpp):
/// a flat {"bench": ..., "metrics": {"key": number, ...}} object. Every
/// *guarded* metric in the baseline — keys ending in `_ratio` or
/// `_work_units`, all "lower is better" by the naming contract — must be
/// present in the current run and must not exceed
/// baseline * (1 + tolerance). Absolute timings (`_s` keys) never gate:
/// they do not transfer between the machine that recorded the baseline and
/// the machine running CI, so the lane pins machine-portable ratios and
/// deterministic work units instead.
///
/// Exit codes: 0 pass, 1 regression, 2 usage/IO/parse error. Improvements
/// beyond the tolerance band pass but are called out so the baseline gets
/// refreshed (scripts/ci.sh perf-refresh).
///
/// Both documents' machine shapes (the "shape" object: core count and build
/// type) are printed. A mismatch, or a baseline that records no shape, is
/// flagged on stderr — the verdicts may then reflect the machine rather
/// than the code — but never changes the exit code.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "util/file_io.hpp"

namespace {

/// Parse the "metrics" object of a MetricsJson document: a flat sequence of
/// "key": number pairs. Deliberately minimal — we control both producers.
std::map<std::string, double> parse_metrics(const std::string& text,
                                            const std::string& path) {
  const std::size_t anchor = text.find("\"metrics\"");
  if (anchor == std::string::npos) {
    std::cerr << path << ": no \"metrics\" object\n";
    std::exit(2);
  }
  std::size_t pos = text.find('{', anchor);
  if (pos == std::string::npos) {
    std::cerr << path << ": malformed \"metrics\" object\n";
    std::exit(2);
  }
  std::map<std::string, double> metrics;
  ++pos;
  while (pos < text.size()) {
    const std::size_t key_open = text.find_first_of("\"}", pos);
    if (key_open == std::string::npos || text[key_open] == '}') break;
    const std::size_t key_close = text.find('"', key_open + 1);
    const std::size_t colon = text.find(':', key_close);
    if (key_close == std::string::npos || colon == std::string::npos) {
      std::cerr << path << ": malformed metric entry\n";
      std::exit(2);
    }
    const std::string key =
        text.substr(key_open + 1, key_close - key_open - 1);
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end == text.c_str() + colon + 1) {
      std::cerr << path << ": metric '" << key << "' has no numeric value\n";
      std::exit(2);
    }
    metrics[key] = value;
    pos = static_cast<std::size_t>(end - text.c_str());
  }
  return metrics;
}

/// The "shape" object of a MetricsJson document as `nproc=<n>
/// build_type=<t>`, or empty when the document records none.
std::string parse_shape(const std::string& text) {
  const std::size_t anchor = text.find("\"shape\"");
  if (anchor == std::string::npos) return "";
  const std::size_t close = text.find('}', anchor);
  const std::string object = text.substr(anchor, close - anchor);
  const auto field = [&](const std::string& key) -> std::string {
    const std::size_t at = object.find("\"" + key + "\"");
    if (at == std::string::npos) return "?";
    const std::size_t begin =
        object.find_first_not_of(" :\"", at + key.size() + 2);
    const std::size_t end = object.find_first_of(",\"}", begin);
    return begin == std::string::npos ? "?"
                                      : object.substr(begin, end - begin);
  };
  return "nproc=" + field("nproc") + " build_type=" + field("build_type");
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool guarded(const std::string& key) {
  return ends_with(key, "_ratio") || ends_with(key, "_work_units");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: perf_compare <baseline.json> <current.json> "
                 "[tolerance]\n";
    return 2;
  }
  const double tolerance = argc > 3 ? std::atof(argv[3]) : 0.25;

  std::string baseline_text, current_text;
  try {
    baseline_text = emutile::read_file(argv[1]);
    current_text = emutile::read_file(argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "perf_compare: " << e.what() << "\n";
    return 2;
  }
  const auto baseline = parse_metrics(baseline_text, argv[1]);
  const auto current = parse_metrics(current_text, argv[2]);

  int regressions = 0;
  std::printf("perf_compare: tolerance %.0f%%  (%s vs %s)\n",
              100.0 * tolerance, argv[1], argv[2]);
  const std::string baseline_shape = parse_shape(baseline_text);
  const std::string current_shape = parse_shape(current_text);
  std::printf("  shape: baseline %s | current %s\n",
              baseline_shape.empty() ? "(none recorded)"
                                     : baseline_shape.c_str(),
              current_shape.empty() ? "(none recorded)"
                                    : current_shape.c_str());
  if (baseline_shape.empty())
    std::cerr << "perf_compare: WARNING " << argv[1]
              << " records no machine shape — re-record it (perf-refresh) "
                 "before trusting a verdict across machines\n";
  else if (baseline_shape != current_shape)
    std::cerr << "perf_compare: WARNING machine shapes differ (baseline "
              << baseline_shape << ", current " << current_shape
              << ") — guarded ratios may not transfer\n";
  std::printf("  %-32s %12s %12s  %s\n", "metric", "baseline", "current",
              "verdict");
  for (const auto& [key, base] : baseline) {
    if (!guarded(key)) continue;
    const auto it = current.find(key);
    if (it == current.end()) {
      std::printf("  %-32s %12.6g %12s  FAIL (missing)\n", key.c_str(), base,
                  "-");
      ++regressions;
      continue;
    }
    const double cur = it->second;
    // Guarded metrics are lower-is-better; the epsilon keeps a zero
    // baseline from failing on representation noise.
    const double allowed = base * (1.0 + tolerance) + 1e-9;
    const char* verdict = "ok";
    if (cur > allowed) {
      verdict = "FAIL (regression)";
      ++regressions;
    } else if (base > 0.0 && cur < base * (1.0 - tolerance)) {
      verdict = "ok (improved — consider perf-refresh)";
    }
    std::printf("  %-32s %12.6g %12.6g  %s\n", key.c_str(), base, cur,
                verdict);
  }
  if (regressions) {
    std::printf("perf_compare: %d guarded metric(s) regressed beyond "
                "%.0f%%\n",
                regressions, 100.0 * tolerance);
    return 1;
  }
  std::printf("perf_compare: all guarded metrics within tolerance\n");
  return 0;
}
