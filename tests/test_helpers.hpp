#pragma once
/// Shared fixtures: small hand-built netlists and random-netlist factories
/// used across the test suite, the fingerprints that pin placements and
/// route trees in golden tests, the field-by-field campaign-report differ
/// the durability and orchestrator suites use to explain byte-inequality
/// failures, and the per-test scratch directory and fd count of the service
/// suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/tiled_design.hpp"
#include "designs/blocks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/netlist_ops.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "synth/lut_mapper.hpp"
#include "util/rng.hpp"

namespace emutile::test {

/// Fresh scratch directory per test under the gtest temp dir, removed on
/// destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::path(::testing::TempDir()) /
             ("emutile-" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Open file descriptors of this process whose /proc/self/fd link starts
/// with `kind` ("socket:" counts sockets only; empty counts every fd) — the
/// leak check of the socket suites, client and in-process daemon sockets
/// alike.
inline std::size_t open_fd_count(std::string_view kind = "") {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target =
        std::filesystem::read_symlink(entry.path(), ec).string();
    if (target.rfind(kind, 0) == 0) ++n;
  }
  return n;
}

/// 4-bit combinational adder: 9 PIs (a0..3, b0..3, cin), 5 POs.
inline Netlist make_adder4() {
  Netlist nl("adder4");
  const Bus a = b_inputs(nl, "a", 4);
  const Bus b = b_inputs(nl, "b", 4);
  const NetId cin = nl.cell_output(nl.add_input("cin"));
  const AddResult r = b_adder(nl, a, b, cin, "add");
  b_outputs(nl, "s", r.sum);
  nl.add_output("cout", r.carry_out);
  nl.validate();
  return nl;
}

/// Small sequential circuit: 4-bit counter-ish datapath with an enable.
inline Netlist make_seq4() {
  Netlist nl("seq4");
  const NetId en = nl.cell_output(nl.add_input("en"));
  const CellId one = nl.add_const("one", true);
  Bus q;
  std::vector<CellId> ffs;
  const CellId zero = nl.add_const("zero", false);
  for (int i = 0; i < 4; ++i) {
    const CellId ff = nl.add_dff("q" + std::to_string(i), nl.cell_output(zero));
    ffs.push_back(ff);
    q.push_back(nl.cell_output(ff));
  }
  Bus inc(4, nl.cell_output(zero));
  inc[0] = nl.cell_output(one);
  const AddResult r = b_adder(nl, q, inc, nl.cell_output(zero), "inc");
  const Bus next = b_mux_bus(nl, en, q, r.sum, "nx");
  for (int i = 0; i < 4; ++i)
    nl.reconnect_input(ffs[static_cast<std::size_t>(i)], 0,
                       next[static_cast<std::size_t>(i)]);
  b_outputs(nl, "o", q);
  nl.validate();
  return nl;
}

/// Random mapped netlist with `num_luts` 4-LUTs (plus a share of DFFs),
/// every cone folded into a checksum output. Already 4-LUT mapped.
inline Netlist make_random_netlist(int num_luts, std::uint64_t seed,
                                   double ff_fraction = 0.1, int num_pis = 8) {
  Netlist nl("rand" + std::to_string(seed));
  Rng rng(seed);
  std::vector<NetId> pool;
  for (int i = 0; i < num_pis; ++i)
    pool.push_back(nl.cell_output(nl.add_input("pi" + std::to_string(i))));
  std::vector<NetId> outs;
  for (int i = 0; i < num_luts; ++i) {
    std::vector<NetId> ins;
    for (int k = 0; k < 4; ++k) {
      // Mostly-local connectivity (like real circuits); purely uniform
      // random graphs have Rent exponent ~1 and are barely routable.
      if (rng.next_bool(0.8) && pool.size() > 24)
        ins.push_back(pool[pool.size() - 1 - rng.next_below(24)]);
      else
        ins.push_back(pool[rng.next_below(pool.size())]);
    }
    TruthTable tt(4);
    do {
      for (unsigned m = 0; m < 16; ++m) tt.set_bit(m, rng.next_bool(0.5));
    } while (tt.is_constant(false) || tt.is_constant(true));
    NetId out = nl.cell_output(nl.add_lut("l" + std::to_string(i), tt, ins));
    if (rng.next_bool(ff_fraction)) {
      out = nl.cell_output(nl.add_dff("f" + std::to_string(i), out));
    }
    pool.push_back(out);
    outs.push_back(out);
  }
  // Fold everything into one checksum plus a few direct outputs.
  for (int o = 0; o < 4 && o < static_cast<int>(outs.size()); ++o)
    nl.add_output("po" + std::to_string(o),
                  outs[outs.size() - 1 - static_cast<std::size_t>(o)]);
  nl.add_output("checksum", b_xor_tree(nl, outs, "ck"));
  nl.validate();
  return nl;
}

/// Field-by-field differential cross-check of two campaign-report CSVs
/// (differential validation in the Guo et al. style): returns "" when the
/// reports agree, otherwise one line per differing cell naming the scenario
/// row and the column header — a byte-inequality assertion tells you *that*
/// a resumed run diverged from a fresh one, this dump tells you *where*.
inline std::string diff_campaign_reports_csv(const std::string& expected,
                                             const std::string& actual) {
  const auto split = [](const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::istringstream in(text);
    for (std::string part; std::getline(in, part, sep);)
      parts.push_back(part);
    return parts;
  };
  const std::vector<std::string> a_rows = split(expected, '\n');
  const std::vector<std::string> b_rows = split(actual, '\n');
  const std::vector<std::string> header =
      a_rows.empty() ? std::vector<std::string>() : split(a_rows[0], ',');

  std::ostringstream diff;
  if (a_rows.size() != b_rows.size())
    diff << "row count: expected " << a_rows.size() << " rows, got "
         << b_rows.size() << "\n";
  const std::size_t rows = std::min(a_rows.size(), b_rows.size());
  for (std::size_t r = 0; r < rows; ++r) {
    if (a_rows[r] == b_rows[r]) continue;
    const std::vector<std::string> a = split(a_rows[r], ',');
    const std::vector<std::string> b = split(b_rows[r], ',');
    // Scenario rows lead with design,error_kind,tiles — enough to name them.
    std::string label = "row " + std::to_string(r);
    if (r > 0 && a.size() >= 3)
      label += " (" + a[0] + "/" + a[1] + "/" + a[2] + ")";
    if (a.size() != b.size()) {
      diff << label << ": expected " << a.size() << " cells, got " << b.size()
           << "\n";
      continue;
    }
    for (std::size_t c = 0; c < a.size(); ++c)
      if (a[c] != b[c])
        diff << label << " column "
             << (c < header.size() ? header[c] : std::to_string(c))
             << ": expected '" << a[c] << "' got '" << b[c] << "'\n";
  }
  return diff.str();
}

/// FNV-1a over a stream of integers: a compact fingerprint that pins a
/// placement or a set of route trees bit for bit in golden tests.
struct Fingerprint {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffU;
      value *= 0x100000001b3ULL;
    }
  }
};

/// Fingerprint of every route tree of a design, in net order.
inline std::uint64_t route_fingerprint(const TiledDesign& d) {
  Fingerprint fp;
  for (const PhysNet& n : d.nets) {
    fp.add(n.net.value());
    if (!d.routing->has_tree(n.net)) continue;
    const RouteTree& t = d.routing->tree(n.net);
    fp.add(t.nodes.size());
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      fp.add(t.nodes[i].value());
      fp.add(static_cast<std::uint64_t>(t.parent[i]));
    }
  }
  return fp.value;
}

/// Response capture: run `patterns` through a netlist, returning all PO
/// vectors (resets first).
inline std::vector<std::vector<std::uint8_t>> run_patterns(
    const Netlist& nl, const std::vector<Pattern>& patterns) {
  Simulator sim(nl);
  sim.reset();
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(patterns.size());
  for (const Pattern& p : patterns) out.push_back(sim.step(p));
  return out;
}

}  // namespace emutile::test
