#pragma once
/// \file rr_graph.hpp
/// Routing-resource graph for the island FPGA.
///
/// Node classes follow the classic VPR decomposition:
///   OPIN  — cell output pin (route sources)
///   IPIN  — cell input pin
///   SINK  — per-site aggregation of logically equivalent input pins
///   CHANX — one horizontal wire segment (unit length, one track)
///   CHANY — one vertical wire segment
///
/// Connectivity: output pins feed all tracks of the adjacent channel segment
/// (full connection box), wires meet in universal same-track switch boxes at
/// channel corners, wires feed adjacent input pins, input pins feed the
/// site's SINK. All wire-wire edges are bidirectional.
///
/// Channel geometry: CHANX(x, y) spans CLB column x in the horizontal channel
/// below CLB row y (y in [0, height]); CHANY(x, y) spans CLB row y in the
/// vertical channel left of CLB column x (x in [0, width]).

#include <cstdint>
#include <span>
#include <vector>

#include "arch/device.hpp"
#include "util/ids.hpp"

namespace emutile {

enum class RrType : std::uint8_t { kOpin, kIpin, kSink, kChanX, kChanY };

[[nodiscard]] const char* to_string(RrType type);

/// Static per-node record.
struct RrNodeInfo {
  RrType type = RrType::kChanX;
  std::int16_t x = 0;       ///< CLB-grid x (channel coords as documented above)
  std::int16_t y = 0;
  std::int16_t pin_or_track = 0;
  std::uint16_t capacity = 1;
  SiteIndex site = kInvalidSite;  ///< owning site for pin/sink nodes
};

/// The routing-resource graph. Immutable once built; routers keep their own
/// occupancy state (see route/Routing).
class RrGraph {
 public:
  explicit RrGraph(const Device& device);

  [[nodiscard]] const Device& device() const { return *device_; }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edge_targets_.size(); }

  [[nodiscard]] const RrNodeInfo& node(RrNodeId id) const {
    return nodes_[id.value()];
  }

  /// Outgoing neighbors of a node.
  [[nodiscard]] std::span<const RrNodeId> fanout(RrNodeId id) const {
    const auto begin = edge_offsets_[id.value()];
    const auto end = edge_offsets_[id.value() + 1];
    return {edge_targets_.data() + begin, end - begin};
  }

  // ---- node lookup --------------------------------------------------------

  [[nodiscard]] RrNodeId opin(SiteIndex site, int pin) const;
  [[nodiscard]] RrNodeId ipin(SiteIndex site, int pin) const;
  [[nodiscard]] RrNodeId sink(SiteIndex site) const;
  [[nodiscard]] RrNodeId chanx(int x, int y, int track) const;
  [[nodiscard]] RrNodeId chany(int x, int y, int track) const;

  /// Number of data input pins at a site (10 for CLB, 1 for IOB).
  [[nodiscard]] int num_ipins(SiteIndex site) const;
  [[nodiscard]] int num_opins(SiteIndex site) const;

  /// Base routing cost of a node (congestion-free). Inline: the router
  /// prices every edge it relaxes with it.
  [[nodiscard]] static float base_cost(RrType type) {
    switch (type) {
      case RrType::kOpin: return 0.5f;
      case RrType::kIpin: return 0.5f;
      case RrType::kSink: return 0.0f;
      case RrType::kChanX:
      case RrType::kChanY: return 1.0f;
    }
    return 1.0f;
  }

  /// Intrinsic delay of a node in nanoseconds (used by STA).
  [[nodiscard]] static float intrinsic_delay_ns(RrType type);

  /// Euclidean-free admissible distance estimate (grid manhattan) from node
  /// `from` to site `to_site`, in units of base wire cost.
  [[nodiscard]] float heuristic_to(RrNodeId from, SiteIndex to_site) const;

 private:
  void build();
  void add_edge(RrNodeId from, RrNodeId to);
  void add_bidir(RrNodeId a, RrNodeId b);

  const Device* device_;
  std::vector<RrNodeInfo> nodes_;
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<RrNodeId> edge_targets_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scratch_edges_;

  // Node-id arithmetic bases.
  std::uint32_t clb_pin_base_ = 0;
  std::uint32_t iob_pin_base_ = 0;
  std::uint32_t chanx_base_ = 0;
  std::uint32_t chany_base_ = 0;
  static constexpr int kClbNodes = ClbPinModel::kNumIpins + ClbPinModel::kNumOpins + 1;
  static constexpr int kIobNodes = 3;  // IPIN, OPIN, SINK
};

}  // namespace emutile
