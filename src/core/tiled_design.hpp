#pragma once
/// \file tiled_design.hpp
/// The complete physical design bundle: netlist, packing, device, placement,
/// routing, and (optionally) the tile structure with lock state.

#include <memory>
#include <optional>
#include <vector>

#include "arch/device.hpp"
#include "arch/rr_graph.hpp"
#include "core/pnr_effort.hpp"
#include "core/tile_grid.hpp"
#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/routing.hpp"
#include "synth/packer.hpp"

namespace emutile {

/// A fully implemented design. Produced by flow::build_flat (no tiles) or
/// TilingEngine::build (tiled, interfaces locked). Movable-only ECO paths
/// mutate it in place.
struct TiledDesign {
  TiledDesign() = default;
  TiledDesign(const TiledDesign&) = delete;
  TiledDesign& operator=(const TiledDesign&) = delete;
  // Placement points at our by-value `packed` member, so moves must rebind.
  TiledDesign(TiledDesign&& other) noexcept { *this = std::move(other); }
  TiledDesign& operator=(TiledDesign&& other) noexcept {
    netlist = std::move(other.netlist);
    packed = std::move(other.packed);
    device = std::move(other.device);
    rr = std::move(other.rr);
    placement = std::move(other.placement);
    routing = std::move(other.routing);
    nets = std::move(other.nets);
    tiles = std::move(other.tiles);
    locked = std::move(other.locked);
    slack_overhead = other.slack_overhead;
    build_effort = other.build_effort;
    if (placement) placement->rebind(*device, packed);
    return *this;
  }

  Netlist netlist;
  PackedDesign packed;
  /// Immutable once built, so clones share them; widening channels builds a
  /// new pair and re-points only this design.
  std::shared_ptr<const Device> device;
  std::shared_ptr<const RrGraph> rr;
  std::unique_ptr<Placement> placement;
  std::unique_ptr<Routing> routing;
  std::vector<PhysNet> nets;          ///< cached physical nets

  std::optional<TileGrid> tiles;      ///< present iff tiled
  std::vector<std::uint8_t> locked;   ///< per-tile lock state (1 = locked)
  double slack_overhead = 0.0;        ///< reserved slack fraction

  PnrEffort build_effort;             ///< effort of the initial implementation

  /// Refresh the cached physical net list after a netlist/packing change.
  void refresh_nets() { nets = packed.physical_nets(netlist); }

  /// CLB instances currently placed inside a tile.
  [[nodiscard]] std::vector<InstId> insts_in_tile(TileId tile) const;

  /// Occupied CLB sites in a tile.
  [[nodiscard]] int tile_occupancy(TileId tile) const;

  /// Free CLB sites in a tile.
  [[nodiscard]] int tile_free(TileId tile) const {
    return tiles->capacity(tile) - tile_occupancy(tile);
  }

  /// Full-design structural validation (netlist, packing, placement, and all
  /// route trees). Used by tests and after ECOs.
  void validate() const;

  /// Copy that shares the immutable device and RR graph and deep-copies
  /// everything mutable (netlist, packing, placement, routing). Cell/net/
  /// instance ids are preserved, so a netlist edit scripted against the
  /// original applies identically to the clone. This is the warm-start
  /// primitive: cloning a pre-injection baseline costs a few vector copies
  /// — no graph construction, placer or router search — which is why
  /// TilingEngine::rebase is orders of magnitude cheaper than build().
  [[nodiscard]] TiledDesign clone() const;
};

}  // namespace emutile
