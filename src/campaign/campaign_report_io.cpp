#include "campaign/campaign_report_io.hpp"

#include <cstdlib>
#include <sstream>

#include "campaign/campaign_spec_io.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/parse_number.hpp"

namespace emutile {

namespace {

void emit_acc(std::ostringstream& os, const char* key, const Accumulator& a) {
  os << key << " " << a.count();
  if (a.count() > 0)
    os << " " << format_double_exact(a.sum()) << " "
       << format_double_exact(a.sum_sq()) << " " << format_double_exact(a.min())
       << " " << format_double_exact(a.max());
  os << "\n";
}

/// Strict sequential reader: the format is machine-to-machine, so every line
/// must carry the expected key in the canonical order serialize emits.
struct ReportReader {
  std::istringstream in;
  int line_no = 0;
  std::istringstream rest;

  explicit ReportReader(const std::string& text) : in(text) {}

  [[noreturn]] void fail(const std::string& message) const {
    EMUTILE_CHECK(false, "shard report line " << line_no << ": " << message);
    std::abort();  // unreachable — EMUTILE_CHECK(false, ...) always throws
  }

  /// Advance to the next line and require its key to be `expected`.
  void expect(const char* expected) {
    std::string line;
    if (!std::getline(in, line)) fail(std::string("missing '") + expected +
                                      "' line (truncated report)");
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    if (key != expected)
      fail("expected '" + std::string(expected) + "', got '" + key + "'");
    rest = std::istringstream(
        space == std::string::npos ? "" : line.substr(space + 1));
  }

  std::string word(const char* what) {
    std::string w;
    if (!(rest >> w)) fail(std::string("missing ") + what);
    return w;
  }

  std::uint64_t u64(const char* what) {
    const std::string w = word(what);
    const auto v = parse_number<std::uint64_t>(w);
    if (!v)
      fail(std::string("bad unsigned integer for ") + what + ": '" + w + "'");
    return *v;
  }

  double real(const char* what) {
    const std::string w = word(what);
    char* end = nullptr;
    const double v = std::strtod(w.c_str(), &end);
    if (end == w.c_str() || *end != '\0')
      fail(std::string("bad number for ") + what + ": '" + w + "'");
    return v;
  }

  void done() {
    std::string extra;
    if (rest >> extra) fail("trailing token '" + extra + "' after value");
  }

  /// Require the input to be exhausted (call after the 'end' footer).
  void end_of_input() {
    std::string line;
    if (std::getline(in, line)) {
      ++line_no;
      fail("content after the 'end' footer");
    }
  }

  Accumulator acc(const char* key) {
    expect(key);
    const std::uint64_t n = u64("sample count");
    Accumulator a;
    if (n > 0) {
      const double sum = real("sum");
      const double sum_sq = real("sum_sq");
      const double min = real("min");
      const double max = real("max");
      a = Accumulator::from_parts(n, sum, sum_sq, min, max);
    }
    done();
    return a;
  }
};

}  // namespace

std::string serialize_campaign_report(const CampaignReport& r) {
  std::ostringstream os;
  os << "emutile-report v2\n"
     << "campaign " << r.sessions << " " << r.completed << " " << r.cancelled
     << " " << r.failed << " " << r.detected << " " << r.narrowed << " "
     << r.corrected << " " << r.clean << "\n";
  emit_acc(os, "debug_work", r.debug_work);
  emit_acc(os, "build_work", r.build_work);
  os << "percentiles " << format_double_exact(r.debug_work_p50) << " "
     << format_double_exact(r.debug_work_p90) << " "
     << format_double_exact(r.debug_work_p99) << "\n"
     << "geomeans " << format_double_exact(r.speedup_quick_geomean) << " "
     << format_double_exact(r.speedup_incremental_geomean) << " "
     << format_double_exact(r.speedup_full_geomean) << "\n"
     << "exec " << format_double_exact(r.wall_seconds) << " " << r.num_threads
     << " " << r.cache_hits << " " << r.cache_misses << "\n"
     << "samples " << r.debug_work_samples.size();
  for (const double sample : r.debug_work_samples)
    os << " " << format_double_exact(sample);
  os << "\n"
     << "scenarios " << r.scenarios.size() << "\n";
  for (const ScenarioStats& s : r.scenarios) {
    EMUTILE_CHECK(s.design.find_first_of(" \t\n") == std::string::npos,
                  "design name '" << s.design
                                  << "' contains whitespace — not "
                                     "representable in the report format");
    os << "scenario " << s.design << " " << to_string(s.error_kind) << " "
       << s.num_tiles << " " << format_double_exact(s.target_overhead) << "\n"
       << "counts " << s.sessions << " " << s.cancelled << " " << s.failed
       << " " << s.detected << " " << s.narrowed << " " << s.corrected << " "
       << s.clean << "\n";
    emit_acc(os, "suspects", s.suspects);
    emit_acc(os, "iterations", s.iterations);
    emit_acc(os, "debug_work", s.debug_work);
    emit_acc(os, "build_work", s.build_work);
    os << "baseline " << (s.baseline.measured ? 1 : 0);
    if (s.baseline.measured)
      os << " " << format_double_exact(s.baseline.speedup_quick) << " "
         << format_double_exact(s.baseline.speedup_incremental) << " "
         << format_double_exact(s.baseline.speedup_full);
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

CampaignReport parse_campaign_report(const std::string& text) {
  ReportReader p(text);
  p.expect("emutile-report");
  if (p.word("format version") != "v2") p.fail("unsupported format version");
  p.done();

  CampaignReport r;
  p.expect("campaign");
  r.sessions = p.u64("sessions");
  r.completed = p.u64("completed");
  r.cancelled = p.u64("cancelled");
  r.failed = p.u64("failed");
  r.detected = p.u64("detected");
  r.narrowed = p.u64("narrowed");
  r.corrected = p.u64("corrected");
  r.clean = p.u64("clean");
  p.done();
  r.debug_work = p.acc("debug_work");
  r.build_work = p.acc("build_work");
  p.expect("percentiles");
  r.debug_work_p50 = p.real("p50");
  r.debug_work_p90 = p.real("p90");
  r.debug_work_p99 = p.real("p99");
  p.done();
  p.expect("geomeans");
  r.speedup_quick_geomean = p.real("quick geomean");
  r.speedup_incremental_geomean = p.real("incremental geomean");
  r.speedup_full_geomean = p.real("full geomean");
  p.done();
  p.expect("exec");
  r.wall_seconds = p.real("wall seconds");
  r.num_threads = p.u64("thread count");
  r.cache_hits = p.u64("cache hits");
  r.cache_misses = p.u64("cache misses");
  p.done();
  p.expect("samples");
  const std::uint64_t num_samples = p.u64("sample count");
  r.debug_work_samples.reserve(num_samples);
  for (std::uint64_t i = 0; i < num_samples; ++i)
    r.debug_work_samples.push_back(p.real("work sample"));
  p.done();
  p.expect("scenarios");
  const std::uint64_t num_scenarios = p.u64("scenario count");
  r.scenarios.resize(num_scenarios);
  for (ScenarioStats& s : r.scenarios) {
    p.expect("scenario");
    s.design = p.word("design name");
    try {
      s.error_kind = error_kind_from_string(p.word("error kind"));
    } catch (const CheckError&) {
      p.fail("unknown error kind");
    }
    s.num_tiles = static_cast<int>(p.u64("tile count"));
    s.target_overhead = p.real("target overhead");
    p.done();
    p.expect("counts");
    s.sessions = p.u64("sessions");
    s.cancelled = p.u64("cancelled");
    s.failed = p.u64("failed");
    s.detected = p.u64("detected");
    s.narrowed = p.u64("narrowed");
    s.corrected = p.u64("corrected");
    s.clean = p.u64("clean");
    p.done();
    s.suspects = p.acc("suspects");
    s.iterations = p.acc("iterations");
    s.debug_work = p.acc("debug_work");
    s.build_work = p.acc("build_work");
    p.expect("baseline");
    const std::uint64_t measured = p.u64("measured flag");
    if (measured > 1) p.fail("baseline flag must be 0 or 1");
    s.baseline.measured = measured == 1;
    if (s.baseline.measured) {
      s.baseline.speedup_quick = p.real("quick speedup");
      s.baseline.speedup_incremental = p.real("incremental speedup");
      s.baseline.speedup_full = p.real("full speedup");
    }
    p.done();
  }
  p.expect("end");
  p.done();
  p.end_of_input();
  return r;
}

CampaignReport load_campaign_report_file(const std::filesystem::path& path) {
  return parse_campaign_report(read_file(path));
}

}  // namespace emutile
