#include "core/tiled_design.hpp"

#include <sstream>

#include "util/check.hpp"

namespace emutile {

std::string PnrEffort::to_string() const {
  std::ostringstream os;
  os << instances_placed << " instances placed, " << nets_routed
     << " nets routed, " << nodes_expanded << " expansions, "
     << place_ms << " ms place + " << route_ms << " ms route";
  return os.str();
}

std::vector<InstId> TiledDesign::insts_in_tile(TileId tile) const {
  EMUTILE_CHECK(tiles.has_value(), "design is not tiled");
  const Rect& r = tiles->rect(tile);
  std::vector<InstId> out;
  for (int y = r.y0; y < r.y1; ++y)
    for (int x = r.x0; x < r.x1; ++x) {
      const InstId inst = placement->inst_at(device->clb_site(x, y));
      if (inst.valid()) out.push_back(inst);
    }
  return out;
}

int TiledDesign::tile_occupancy(TileId tile) const {
  return static_cast<int>(insts_in_tile(tile).size());
}

TiledDesign TiledDesign::clone() const {
  TiledDesign out;
  out.netlist = netlist;
  out.packed = packed;
  out.device = device;
  out.rr = rr;
  out.placement =
      std::make_unique<Placement>(*out.device, out.packed, *placement);
  out.routing = std::make_unique<Routing>(*out.rr, *routing);
  out.nets = nets;
  out.tiles = tiles;
  out.locked = locked;
  out.slack_overhead = slack_overhead;
  out.build_effort = build_effort;
  return out;
}

void TiledDesign::validate() const {
  netlist.validate();
  packed.validate(netlist);
  placement->validate(packed);
  for (const PhysNet& n : nets)
    if (routing->has_tree(n.net)) routing->validate_tree(n.net);
  EMUTILE_ASSERT(routing->count_overused() == 0,
                 "routing has overused nodes");
  if (tiles.has_value())
    EMUTILE_ASSERT(locked.size() ==
                       static_cast<std::size_t>(tiles->num_tiles()),
                   "lock table size mismatch");
}

}  // namespace emutile
