#pragma once
/// Shared plumbing for the paper-reproduction bench harnesses: builds the
/// nine Table 1 designs with consistent parameters and prints uniform
/// headers. Each bench binary regenerates one table or figure.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tiling_engine.hpp"
#include "designs/catalog.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

// The CMake build type the bench was compiled under (set per bench target).
#ifndef EMUTILE_BUILD_TYPE
#define EMUTILE_BUILD_TYPE "unknown"
#endif

namespace emutile::bench {

/// Placer effort scaled to design size so the large designs (MIPS, DES)
/// keep bench runtimes reasonable; quality differences wash out of the
/// relative comparisons the paper reports.
inline double effort_for(int clbs) {
  if (clbs >= 800) return 0.15;
  if (clbs >= 200) return 0.4;
  return 1.0;
}

/// Route with a wider default channel so the big designs do not spend bench
/// time on widening retries.
inline int tracks_for(int clbs) { return clbs >= 200 ? 14 : 12; }

inline TiledDesign build_tiled_paper_design(const std::string& name,
                                            int num_tiles, double overhead,
                                            std::uint64_t seed) {
  const PaperDesign& spec = paper_design(name);
  Netlist nl = build_paper_design(name, seed);
  TilingParams tp;
  tp.seed = seed;
  tp.target_overhead = overhead;
  tp.num_tiles = num_tiles;
  tp.placer_effort = effort_for(spec.clbs);
  tp.tracks_per_channel = tracks_for(spec.clbs);
  return TilingEngine::build(std::move(nl), tp);
}

inline void banner(const char* title, const char* paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n(reproduces " << paper_ref
            << " of Lach/Mangione-Smith/Potkonjak, DAC 2000)\n"
            << "==============================================================\n";
}

/// Machine-readable bench output: a flat named-metric JSON document,
///
///   {"bench": "<name>",
///    "shape": {"nproc": <cores>, "build_type": "<CMAKE_BUILD_TYPE>"},
///    "metrics": {"<key>": <number>, ...}}
///
/// `shape` records the machine and build the numbers came from, so
/// perf_compare can say when a baseline and a run are not comparable.
/// shared by every bench the perf-regression CI lane consumes — the
/// checked-in bench/baselines/*.json files are literal copies of this
/// output, and tools/perf_compare reads both sides. Metric naming contract:
/// keys ending in `_ratio` or `_work_units` are guarded (lower is better,
/// compared against the baseline with a tolerance band); everything else —
/// absolute seconds in particular, which do not transfer across machines —
/// is recorded for humans and trend tooling but never gates CI.
class MetricsJson {
 public:
  explicit MetricsJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{\n  \"bench\": \"" + bench_name_ + "\",\n";
    out += "  \"shape\": {\"nproc\": " +
           std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
           ", \"build_type\": \"" EMUTILE_BUILD_TYPE "\"},\n";
    out += "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", metrics_[i].second);
      out += "    \"" + metrics_[i].first + "\": " + buf;
      out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "  }\n}\n";
    return out;
  }

  /// Atomically write the document to `path` (the artifact CI uploads and
  /// perf-refresh checks in as the new baseline).
  void write(const std::string& path) const {
    write_file_atomic(path, str());
    std::cout << "metrics JSON written to " << path << "\n";
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace emutile::bench
