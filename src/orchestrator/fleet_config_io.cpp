#include "orchestrator/fleet_config_io.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/file_io.hpp"

namespace emutile {

FleetConfig parse_fleet_config(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  const auto fail = [&line_no](const std::string& message) {
    EMUTILE_CHECK(false, "fleet config line " << line_no << ": " << message);
  };

  // Advance to the next non-blank, non-comment line; empty string at EOF.
  const auto next = [&]() -> std::string {
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      const std::size_t last = line.find_last_not_of(" \t\r");
      return line.substr(start, last - start + 1);
    }
    return "";
  };

  const std::string header = next();
  if (header != "emutile-fleet v1")
    fail("fleet config must start with 'emutile-fleet v1'");

  FleetConfig config;
  bool saw_end = false;
  for (std::string entry = next(); !entry.empty(); entry = next()) {
    if (entry == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(entry);
    std::string key, name, kind, value, extra;
    fields >> key;
    if (key != "instance") fail("unknown key '" + key + "'");
    if (!(fields >> name)) fail("instance needs a name");
    if (!(fields >> kind)) fail("instance '" + name + "' needs an address kind");
    if (!(fields >> value))
      fail("instance '" + name + "' needs a " + kind + " address");
    if (fields >> extra) fail("trailing token '" + extra + "' after address");
    FleetInstance instance;
    instance.name = name;
    std::string scheme;
    if (kind == "socket" || kind == "unix") scheme = "unix:";
    else if (kind == "tcp") scheme = "tcp:";
    else fail("unknown address kind '" + kind + "' (socket|tcp)");
    try {
      instance.address = parse_service_address(scheme + value);
    } catch (const CheckError& e) {
      fail("instance '" + name + "': " + e.what());
    }
    for (const FleetInstance& existing : config.instances)
      if (existing.name == name) fail("duplicate instance name '" + name + "'");
    config.instances.push_back(std::move(instance));
  }
  EMUTILE_CHECK(saw_end, "fleet config is missing the 'end' footer");
  EMUTILE_CHECK(next().empty(), "content after the 'end' footer");
  EMUTILE_CHECK(!config.instances.empty(),
                "fleet config declares no instances");
  return config;
}

FleetConfig load_fleet_config_file(const std::filesystem::path& path) {
  return parse_fleet_config(read_file(path));
}

std::string serialize_fleet_config(const FleetConfig& config) {
  std::ostringstream os;
  os << "emutile-fleet v1\n";
  for (const FleetInstance& instance : config.instances) {
    os << "instance " << instance.name << " ";
    switch (instance.address.kind) {
      case AddressKind::kUnix:
        os << "socket " << instance.address.path.string();
        break;
      case AddressKind::kTcp:
        os << "tcp " << instance.address.host << ":" << instance.address.port;
        break;
    }
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

}  // namespace emutile
