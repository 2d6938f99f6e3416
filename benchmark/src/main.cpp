/// emutile_bench: the repository benchmark's entry point.
///
///   emutile_bench --workload sessions|daemon|fleet --seed N --seconds S
///                 --trace 0|1 [--commit ID] [--results DIR] [--work DIR]
///
/// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
/// (--trace 1) report the per-layer metrics, computed from the span forest
/// of a traced measurement, plus the tracing overhead against an untraced
/// measurement in the same process. Every run checks its outputs, prints a
/// digest of its deterministic reports, writes a result file that records
/// the machine shape, and prints one JSON result line last. The exit code
/// is nonzero when an output check failed.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace_io.hpp"
#include "workload.hpp"

namespace {

int usage() {
  std::cerr << "usage: emutile_bench --workload sessions|daemon|fleet "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--results DIR] [--work DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunArgs args;
  std::string commit = "unknown";
  std::filesystem::path results_dir = ".bench_results";
  std::filesystem::path work_root = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--commit") commit = value;
    else if (key == "--results") results_dir = value;
    else if (key == "--work") work_root = value;
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();
  void (*run)(const bench::RunArgs&, bench::WorkloadResult&) = nullptr;
  if (args.workload == "sessions") run = bench::run_sessions;
  else if (args.workload == "daemon") run = bench::run_daemon;
  else if (args.workload == "fleet") run = bench::run_fleet;
  else return usage();

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  args.clients = nproc > 1 ? nproc - 1 : 1;
  args.work_dir = work_root / args.workload;

  bench::WorkloadResult result;
  try {
    std::filesystem::remove_all(args.work_dir);
    std::filesystem::create_directories(args.work_dir);
    run(args, result);
    std::filesystem::remove_all(args.work_dir);
  } catch (const std::exception& e) {
    std::cerr << "emutile_bench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const std::vector<bench::Metric>& metrics =
      args.trace ? result.per_layer.metrics() : result.end_to_end.metrics();
  std::ostringstream shape;
  shape << "{\"nproc\": " << nproc << ", \"build_type\": \""
        << BENCH_BUILD_TYPE << "\", \"compiler\": \"" << BENCH_COMPILER
        << "\", \"commit\": \"" << commit << "\"}";
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " trace " << args.trace << " clients " << args.clients << "\n"
            << "shape " << shape.str() << "\n";
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << "peak_rss_mb " << bench::peak_rss_mb() << "\n";
  std::cout << "digest " << result.digest << "\n"
            << "failed_frac " << result.tally.failed_frac() << " ("
            << result.tally.failed() << " of " << result.tally.attempted()
            << ")\n";
  for (const auto& [reason, count] : result.tally.reasons())
    std::cout << "  failure: " << reason << " x" << count << "\n";
  for (const bench::Metric& m : metrics)
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";

  const bool correct = result.tally.failed() == 0;
  const std::string line = bench::result_json_line(
      correct, result.tally.attempted(), result.tally.failed(), metrics);
  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);
  const std::string stem = args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::ofstream(results_dir / (stem + ".json"))
      << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace << ", \"shape\": " << shape.str()
      << ", \"digest\": \"" << result.digest << "\", \"result\": " << line
      << "}\n";
  if (args.trace) {
    const std::filesystem::path trace_file =
        results_dir / ("trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json");
    std::ofstream(trace_file) << emutile::trace_events_json(result.trace);
    std::cout << "trace " << trace_file.string() << " (" << result.trace.size()
              << " spans)\n";
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
