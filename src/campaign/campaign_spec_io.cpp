#include "campaign/campaign_spec_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "designs/catalog.hpp"
#include "util/check.hpp"
#include "util/file_io.hpp"
#include "util/parse_number.hpp"

namespace emutile {

// Try increasing precision until strtod round-trips. Keeps the canonical
// form human-readable for common values (0.25 stays "0.25") yet hash-stable
// for any input.
std::string format_double_exact(double v) {
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string format_u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

struct LineParser {
  std::istringstream in;
  int line_no = 0;
  std::string key;
  std::istringstream rest;

  explicit LineParser(const std::string& text) : in(text) {}

  /// Advance to the next non-blank, non-comment line; false at EOF.
  bool next() {
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      const std::size_t last = line.find_last_not_of(" \t\r");
      line = line.substr(start, last - start + 1);
      const std::size_t space = line.find_first_of(" \t");
      key = line.substr(0, space);
      rest = std::istringstream(
          space == std::string::npos ? "" : line.substr(space + 1));
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& message) const {
    EMUTILE_CHECK(false,
                  "campaign spec line " << line_no << ": " << message);
    std::abort();  // unreachable — EMUTILE_CHECK(false, ...) always throws
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
};

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

ErrorKind error_kind_from_string(const std::string& name) {
  for (const ErrorKind kind :
       {ErrorKind::kLutFunction, ErrorKind::kWrongPolarity,
        ErrorKind::kWrongConnection}) {
    if (name == to_string(kind)) return kind;
  }
  EMUTILE_CHECK(false, "unknown error kind '" << name << "'");
  return ErrorKind::kLutFunction;  // unreachable
}

CampaignSpec parse_campaign_spec(const std::string& text) {
  LineParser p(text);
  EMUTILE_CHECK(p.next() && p.key == "emutile-campaign" &&
                    p.word("format version") == "v1",
                "campaign spec must start with 'emutile-campaign v1'");
  p.done();

  CampaignSpec spec;
  // The defaulted list fields mean "the caller didn't choose"; an explicit
  // spec replaces them with exactly what its lines say.
  spec.error_kinds.clear();
  spec.tilings.clear();

  bool saw_end = false;
  std::vector<std::string> seen_scalars;
  const auto scalar_once = [&](const std::string& key) {
    for (const std::string& s : seen_scalars)
      if (s == key) p.fail("duplicate key '" + key + "'");
    seen_scalars.push_back(key);
  };

  while (p.next()) {
    if (p.key == "end") {
      p.done();
      saw_end = true;
      break;
    } else if (p.key == "design") {
      const std::string name = p.word("design name");
      p.done();
      try {
        spec.add_catalog_design(name);
      } catch (const CheckError&) {
        p.fail("unknown catalog design '" + name + "'");
      }
    } else if (p.key == "error_kind") {
      const std::string name = p.word("error kind");
      p.done();
      try {
        spec.error_kinds.push_back(error_kind_from_string(name));
      } catch (const CheckError&) {
        p.fail("unknown error kind '" + name + "'");
      }
    } else if (p.key == "tiling") {
      TilingParams t;
      t.num_tiles = static_cast<int>(p.u64("tiles"));
      t.target_overhead = p.real("overhead");
      t.placer_effort = p.real("placer_effort");
      t.tracks_per_channel = static_cast<int>(p.u64("tracks"));
      t.route_headroom = static_cast<int>(p.u64("headroom"));
      p.done();
      spec.tilings.push_back(t);
    } else if (p.key == "sessions_per_scenario") {
      scalar_once(p.key);
      spec.sessions_per_scenario = static_cast<int>(p.u64("session count"));
      p.done();
    } else if (p.key == "sessions_by_scenario" || p.key == "replica_base") {
      scalar_once(p.key);
      std::vector<int>& v = p.key == "sessions_by_scenario"
                                ? spec.sessions_by_scenario
                                : spec.replica_base;
      std::string w;
      while (p.rest >> w) {
        const auto n = parse_number<std::uint64_t>(w);
        if (!n || *n > 0x7fffffffull)
          p.fail("bad per-scenario count '" + w + "'");
        v.push_back(static_cast<int>(*n));
      }
      if (v.empty()) p.fail("needs at least one per-scenario count");
    } else if (p.key == "master_seed") {
      scalar_once(p.key);
      spec.master_seed = p.u64("seed");
      p.done();
    } else if (p.key == "num_patterns") {
      scalar_once(p.key);
      spec.num_patterns = p.u64("pattern count");
      p.done();
    } else if (p.key == "localizer") {
      scalar_once(p.key);
      spec.localizer.probes_per_iteration = static_cast<int>(p.u64("probes"));
      spec.localizer.max_iterations = static_cast<int>(p.u64("max_iters"));
      spec.localizer.stop_at = p.u64("stop_at");
      spec.localizer.seed = p.u64("seed");
      p.done();
    } else if (p.key == "localizer_eco") {
      scalar_once(p.key);
      spec.localizer.eco.seed = p.u64("seed");
      spec.localizer.eco.placer_effort = p.real("placer_effort");
      spec.localizer.eco.max_region_expansions =
          static_cast<int>(p.u64("max_expansions"));
      p.done();
    } else if (p.key == "eco") {
      scalar_once(p.key);
      spec.eco.seed = p.u64("seed");
      spec.eco.placer_effort = p.real("placer_effort");
      spec.eco.max_region_expansions =
          static_cast<int>(p.u64("max_expansions"));
      p.done();
    } else if (p.key == "measure_baselines") {
      scalar_once(p.key);
      const std::uint64_t v = p.u64("flag");
      if (v > 1) p.fail("measure_baselines must be 0 or 1");
      spec.measure_baselines = v == 1;
      p.done();
    } else if (p.key == "shard") {
      scalar_once(p.key);
      spec.shard_index = p.u64("shard index");
      spec.shard_count = p.u64("shard count");
      if (spec.shard_count < 1 || spec.shard_index >= spec.shard_count)
        p.fail("bad shard selection " + std::to_string(spec.shard_index) +
               "/" + std::to_string(spec.shard_count));
      p.done();
    } else if (p.key == "slice") {
      scalar_once(p.key);
      spec.slice_begin = p.u64("slice begin");
      spec.slice_end = p.u64("slice end");
      if (spec.slice_end <= spec.slice_begin)
        p.fail("bad slice [" + std::to_string(spec.slice_begin) + ", " +
               std::to_string(spec.slice_end) + ")");
      p.done();
    } else {
      p.fail("unknown key '" + p.key + "'");
    }
  }
  EMUTILE_CHECK(saw_end, "campaign spec is missing the 'end' footer");
  EMUTILE_CHECK(!p.next(), "content after the 'end' footer");

  // Omitted lists fall back to the CampaignSpec defaults, mirroring the
  // programmatic API.
  if (spec.error_kinds.empty())
    spec.error_kinds = CampaignSpec{}.error_kinds;
  if (spec.tilings.empty()) spec.tilings = CampaignSpec{}.tilings;
  for (const std::vector<int>* v :
       {&spec.sessions_by_scenario, &spec.replica_base}) {
    EMUTILE_CHECK(v->empty() || v->size() == spec.num_scenarios(),
                  "per-scenario budget vector has "
                      << v->size() << " entries but the spec has "
                      << spec.num_scenarios() << " scenarios");
  }
  return spec;
}

CampaignSpec load_campaign_spec_file(const std::filesystem::path& path) {
  return parse_campaign_spec(read_file(path));
}

std::string serialize_campaign_spec(const CampaignSpec& spec) {
  std::ostringstream os;
  os << "emutile-campaign v1\n";
  for (const CampaignDesign& d : spec.designs) {
    EMUTILE_CHECK(!d.builder,
                  "design '" << d.name
                             << "' has a custom builder — only catalog "
                                "designs can be serialized");
    os << "design " << d.name << "\n";
  }
  for (const ErrorKind kind : spec.error_kinds)
    os << "error_kind " << to_string(kind) << "\n";
  // The tiling's own seed is omitted on purpose: expand() overrides it with
  // the split-derived session seed, so it can never influence results.
  for (const TilingParams& t : spec.tilings)
    os << "tiling " << t.num_tiles << " " << format_double_exact(t.target_overhead)
       << " " << format_double_exact(t.placer_effort) << " " << t.tracks_per_channel
       << " " << t.route_headroom << "\n";
  os << "sessions_per_scenario " << spec.sessions_per_scenario << "\n";
  // The per-scenario budget vectors are omitted when empty so plain uniform
  // specs keep their historical canonical form (and content hashes).
  const auto emit_budgets = [&](const char* key, const std::vector<int>& v) {
    if (v.empty()) return;
    EMUTILE_CHECK(v.size() == spec.num_scenarios(),
                  key << " has " << v.size() << " entries for "
                      << spec.num_scenarios() << " scenarios");
    os << key;
    for (const int n : v) os << " " << n;
    os << "\n";
  };
  emit_budgets("sessions_by_scenario", spec.sessions_by_scenario);
  emit_budgets("replica_base", spec.replica_base);
  os << "master_seed " << spec.master_seed << "\n"
     << "num_patterns " << spec.num_patterns << "\n"
     << "localizer " << spec.localizer.probes_per_iteration << " "
     << spec.localizer.max_iterations << " " << spec.localizer.stop_at << " "
     << spec.localizer.seed << "\n"
     << "localizer_eco " << spec.localizer.eco.seed << " "
     << format_double_exact(spec.localizer.eco.placer_effort) << " "
     << spec.localizer.eco.max_region_expansions << "\n"
     << "eco " << spec.eco.seed << " " << format_double_exact(spec.eco.placer_effort)
     << " " << spec.eco.max_region_expansions << "\n"
     << "measure_baselines " << (spec.measure_baselines ? 1 : 0) << "\n"
     << "shard " << spec.shard_index << " " << spec.shard_count << "\n";
  // Omitted when unset so pre-slice specs keep their content hash (the
  // result cache and warm-start keys depend on it).
  if (spec.sliced())
    os << "slice " << spec.slice_begin << " " << spec.slice_end << "\n";
  os << "end\n";
  return os.str();
}

std::uint64_t spec_content_hash(const CampaignSpec& spec) {
  return fnv1a64(serialize_campaign_spec(spec));
}

std::string spec_content_hash_hex(const CampaignSpec& spec) {
  return format_u64_hex(spec_content_hash(spec));
}

std::string prepend_traceparent(const std::string& spec_text,
                                const std::string& traceparent) {
  if (traceparent.empty()) return spec_text;
  return "# traceparent=" + traceparent + "\n" + spec_text;
}

std::string extract_traceparent(const std::string& spec_text) {
  static constexpr std::string_view kPrefix = "# traceparent=";
  std::istringstream in(spec_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] != '#') return "";  // past the comment preamble
    if (line.compare(0, kPrefix.size(), kPrefix) == 0)
      return line.substr(kPrefix.size());
  }
  return "";
}

}  // namespace emutile
