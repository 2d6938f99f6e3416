#pragma once
/// \file fleet_config_io.hpp
/// The fleet-config format: which serviced instances a campaign coordinator
/// fans shards out to, and how each one is addressed.
///
/// Line-oriented text, same conventions as the campaign spec format
/// (`# comments`, blank lines, `emutile-fleet v1` header, `end` footer):
///
///   emutile-fleet v1
///   instance alpha socket /var/emutile-a/serviced.sock
///   instance beta  tcp    10.0.0.7:7733
///   end
///
/// Two address kinds (the ServiceAddress schemes of address.hpp), both the
/// full wire protocol:
///   socket <path>       the instance's Unix control socket — full protocol
///                       (SUBMIT/STATUS/WAIT/SHARDREPORT), live progress.
///                       `unix` is accepted as a synonym on input.
///   tcp <host:port>     the instance's TCP control endpoint — same protocol,
///                       cross-host
///
/// Instance names must be unique — they key health tracking, cache-affinity
/// history, and membership reconciliation (a coordinator reloading the fleet
/// file mid-campaign matches instances by name: new names join, missing
/// names retire), and appear in fleet snapshots and logs.

#include <string>
#include <vector>

#include "service/address.hpp"

namespace emutile {

struct FleetInstance {
  std::string name;
  ServiceAddress address;
};

struct FleetConfig {
  std::vector<FleetInstance> instances;
};

/// Parse a fleet config. Throws CheckError with a line number on malformed
/// input (bad header, unknown key or address kind, a tcp address without
/// host:port, duplicate or missing instance name, empty fleet, trailing
/// content).
[[nodiscard]] FleetConfig parse_fleet_config(const std::string& text);

/// Read and parse a fleet-config file. Throws CheckError on IO/parse errors.
[[nodiscard]] FleetConfig load_fleet_config_file(
    const std::filesystem::path& path);

/// Canonical serialization (`socket`/`tcp` kinds);
/// parse(serialize(c)) reproduces `c`.
[[nodiscard]] std::string serialize_fleet_config(const FleetConfig& config);

}  // namespace emutile
