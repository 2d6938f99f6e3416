#include "service/campaign_wal.hpp"

#include <cstdio>

#include <algorithm>
#include <sstream>
#include <system_error>
#include <unordered_map>

#include "campaign/campaign_spec_io.hpp"
#include "util/file_io.hpp"
#include "util/parse_number.hpp"

namespace emutile {

namespace {

// Per-line checksum: low 32 bits of FNV-1a over the record body, rendered
// as exactly 8 hex digits and appended as " #xxxxxxxx".
std::string line_checksum(const std::string& body) {
  const std::uint64_t h = fnv1a64(body) & 0xffffffffull;
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

// Split "body #xxxxxxxx" and verify the checksum. Empty return: damaged.
bool split_checked_line(const std::string& line, std::string* body) {
  const std::size_t mark = line.rfind(" #");
  if (mark == std::string::npos) return false;
  const std::string sum = line.substr(mark + 2);
  if (sum.size() != 8) return false;
  *body = line.substr(0, mark);
  return line_checksum(*body) == sum;
}

bool parse_u64_hex(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = 10 + (c - 'a');
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// Parse one verified record body into `wal`. `first` is true for the line
// that must be the header.
bool parse_record(const std::string& body, bool first, CampaignWal* wal,
                  std::string* error) {
  std::istringstream in(body);
  std::string kind;
  in >> kind;
  if (first) {
    std::string version, id, spec, priority;
    if (kind != "emutile-wal" || !(in >> version >> id >> spec >> priority) ||
        version != "v1" || spec.rfind("spec=", 0) != 0 ||
        priority.rfind("priority=", 0) != 0) {
      return fail(error, "bad header: " + body);
    }
    wal->campaign_id = id;
    wal->spec_hash = spec.substr(5);
    std::uint64_t ignored = 0;
    if (wal->spec_hash.size() != 16 ||
        !parse_u64_hex(wal->spec_hash, &ignored)) {
      return fail(error, "bad spec hash: " + body);
    }
    const auto parsed_priority =
        parse_number<int>(std::string_view(priority).substr(9));
    if (!parsed_priority) return fail(error, "bad priority: " + body);
    wal->priority = *parsed_priority;
    return true;
  }
  if (kind == "session") {
    WalSessionRecord rec;
    std::string index, key;
    if (!(in >> index >> key)) return fail(error, "bad session: " + body);
    const auto parsed_index = parse_number<std::size_t>(index);
    if (!parsed_index) return fail(error, "bad session index: " + body);
    rec.index = *parsed_index;
    if (key != "-") {
      if (!parse_u64_hex(key, &rec.key)) {
        return fail(error, "bad session key: " + body);
      }
      rec.has_key = true;
    }
    wal->sessions.push_back(rec);
    return true;
  }
  if (kind == "complete") {
    std::string state;
    if (!(in >> state)) return fail(error, "bad complete: " + body);
    wal->complete = true;
    wal->final_state = state;
    return true;
  }
  return fail(error, "unknown record: " + body);
}

}  // namespace

CampaignWalWriter::CampaignWalWriter(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  out_.open(path, std::ios::app);
  ok_ = out_.is_open();
}

void CampaignWalWriter::begin(const std::string& campaign_id,
                              const std::string& spec_hash, int priority) {
  append("emutile-wal v1 " + campaign_id + " spec=" + spec_hash +
         " priority=" + std::to_string(priority));
}

void CampaignWalWriter::session(std::size_t index, std::uint64_t key,
                                bool has_key) {
  append("session " + std::to_string(index) + " " +
         (has_key ? format_u64_hex(key) : std::string("-")));
}

void CampaignWalWriter::complete(const char* state) {
  append(std::string("complete ") + state);
}

void CampaignWalWriter::append(const std::string& body) {
  if (!ok_) return;
  const std::string line = body + " #" + line_checksum(body) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();
  if (out_.fail()) ok_ = false;
}

std::optional<CampaignWal> parse_campaign_wal(const std::string& text,
                                              std::string* error) {
  // Collect lines first so "last line" is well-defined: only the final line
  // may be damaged (torn append); damage anywhere else poisons the journal.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) {
    if (error != nullptr) *error = "empty journal";
    return std::nullopt;
  }

  CampaignWal wal;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool last = (i + 1 == lines.size());
    std::string body;
    if (!split_checked_line(lines[i], &body)) {
      if (last && i > 0) break;  // torn final append — drop it
      if (error != nullptr) {
        *error = (i == 0 ? "damaged header line" : "damaged journal line") +
                 std::string(": ") + lines[i];
      }
      return std::nullopt;
    }
    std::string record_error;
    if (!parse_record(body, i == 0, &wal, &record_error)) {
      // A verified checksum with an unparseable body is corruption, not a
      // torn append — reject even on the last line (checksums don't tear).
      if (error != nullptr) *error = record_error;
      return std::nullopt;
    }
  }

  // Deduplicate session records (last wins) and return them sorted by job
  // index, so callers see one deterministic view regardless of the append
  // interleaving the worker threads produced.
  std::unordered_map<std::size_t, WalSessionRecord> by_index;
  for (const WalSessionRecord& rec : wal.sessions) by_index[rec.index] = rec;
  std::vector<WalSessionRecord> deduped;
  deduped.reserve(by_index.size());
  for (const auto& [index, rec] : by_index) deduped.push_back(rec);
  std::sort(deduped.begin(), deduped.end(),
            [](const WalSessionRecord& a, const WalSessionRecord& b) {
              return a.index < b.index;
            });
  wal.sessions = std::move(deduped);
  return wal;
}

std::optional<CampaignWal> load_campaign_wal(const std::filesystem::path& path,
                                             std::string* error) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  return parse_campaign_wal(text, error);
}

}  // namespace emutile
