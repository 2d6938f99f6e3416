#include "obs/trace_io.hpp"

#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "util/check.hpp"
#include "util/parse_number.hpp"

namespace emutile {

namespace {

std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

std::uint64_t parse_hex_field(const std::string& token, std::string_view key,
                              const std::string& line) {
  const std::string prefix = std::string(key) + "=";
  EMUTILE_CHECK(token.rfind(prefix, 0) == 0,
                "trace: expected " << key << "= in: " << line);
  const std::string digits = token.substr(prefix.size());
  EMUTILE_CHECK(digits.size() == 16, "trace: bad hex width in: " << line);
  std::uint64_t v = 0;
  for (const char c : digits) {
    EMUTILE_CHECK((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'),
                  "trace: bad hex digit in: " << line);
    v = (v << 4) |
        static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return v;
}

std::uint64_t parse_u64_field(const std::string& token, std::string_view key,
                              const std::string& line) {
  const std::string prefix = std::string(key) + "=";
  EMUTILE_CHECK(token.rfind(prefix, 0) == 0,
                "trace: expected " << key << "= in: " << line);
  const auto value = parse_number<std::uint64_t>(
      std::string_view(token).substr(prefix.size()));
  EMUTILE_CHECK(value.has_value(),
                "trace: bad unsigned " << key << " in: " << line);
  return *value;
}

void append_json_string(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string trace_spans_to_text(const std::vector<TraceSpan>& spans) {
  std::ostringstream os;
  os << "emutile-trace v1\n";
  for (const TraceSpan& span : spans) {
    EMUTILE_CHECK(!span.name.empty() &&
                      span.name.find_first_of(" \t\n\r") == std::string::npos,
                  "trace: span name not wire-safe: '" << span.name << "'");
    os << "span " << span.name << " trace=" << u64_hex(span.trace_id)
       << " span=" << u64_hex(span.span_id)
       << " parent=" << u64_hex(span.parent_id)
       << " start_us=" << span.start_us << " dur_us=" << span.dur_us
       << " pid=" << span.pid << " tid=" << span.tid
       << " open=" << (span.open ? 1 : 0) << "\n";
  }
  os << "end\n";
  return os.str();
}

std::vector<TraceSpan> parse_trace_spans_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  EMUTILE_CHECK(std::getline(in, line) && line == "emutile-trace v1",
                "trace: missing header");
  std::vector<TraceSpan> spans;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string kind, token;
    ls >> kind;
    EMUTILE_CHECK(kind == "span", "trace: unknown record in: " << line);
    TraceSpan span;
    EMUTILE_CHECK(static_cast<bool>(ls >> span.name),
                  "trace: truncated span line: " << line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.trace_id = parse_hex_field(token, "trace", line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.span_id = parse_hex_field(token, "span", line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.parent_id = parse_hex_field(token, "parent", line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.start_us = parse_u64_field(token, "start_us", line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.dur_us = parse_u64_field(token, "dur_us", line);
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.pid = static_cast<std::uint32_t>(parse_u64_field(token, "pid", line));
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    span.tid = static_cast<std::uint32_t>(parse_u64_field(token, "tid", line));
    EMUTILE_CHECK(static_cast<bool>(ls >> token),
                  "trace: truncated span line: " << line);
    const std::uint64_t open = parse_u64_field(token, "open", line);
    EMUTILE_CHECK(open <= 1, "trace: bad open flag in: " << line);
    span.open = open == 1;
    EMUTILE_CHECK(!(ls >> token), "trace: trailing token in: " << line);
    EMUTILE_CHECK(span.trace_id != 0 && span.span_id != 0,
                  "trace: zero id in: " << line);
    spans.push_back(std::move(span));
  }
  EMUTILE_CHECK(saw_end, "trace: missing end marker");
  // Anything after the end marker means the framing is off (a TRACESPANS
  // reply whose span count disagreed with the payload, say) — reject rather
  // than silently drop it.
  while (std::getline(in, line))
    EMUTILE_CHECK(line.empty(), "trace: content after end marker: " << line);
  return spans;
}

std::string trace_events_json(const std::vector<TraceSpan>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    if (span.open) continue;
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    append_json_string(os, span.name);
    os << ",\"cat\":\"emutile\",\"ph\":\"X\",\"ts\":" << span.start_us
       << ",\"dur\":" << span.dur_us << ",\"pid\":" << span.pid
       << ",\"tid\":" << span.tid << ",\"args\":{\"trace\":\""
       << u64_hex(span.trace_id) << "\",\"span\":\"" << u64_hex(span.span_id)
       << "\",\"parent\":\"" << u64_hex(span.parent_id) << "\"}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void shift_spans(std::vector<TraceSpan>& spans, std::int64_t offset_us) {
  for (TraceSpan& span : spans) {
    const auto start = static_cast<std::int64_t>(span.start_us) + offset_us;
    span.start_us = start < 0 ? 0 : static_cast<std::uint64_t>(start);
  }
}

std::vector<TraceSpan> dedup_spans(std::vector<TraceSpan> spans) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<TraceSpan> out;
  out.reserve(spans.size());
  for (TraceSpan& span : spans)
    if (seen.insert(span.span_id).second) out.push_back(std::move(span));
  return out;
}

}  // namespace emutile
