#include "core/flow.hpp"

#include <cmath>

#include "place/placer.hpp"
#include "route/router.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace emutile {

PnrEffort route_all_with_retry(TiledDesign& design, int max_track_retries) {
  PnrEffort effort;
  for (int attempt = 0; ; ++attempt) {
    Router router(*design.rr);
    auto tasks = make_route_tasks(*design.rr, *design.placement, design.nets);
    // From-scratch: drop any existing trees first.
    for (const PhysNet& n : design.nets) design.routing->rip_up(n.net);
    RouterParams rp;
    const RouteResult rr = router.route(std::move(tasks), *design.routing, rp);
    effort.nets_routed += rr.nets_routed;
    effort.nodes_expanded += rr.nodes_expanded;
    effort.route_ms += rr.wall_ms;
    if (rr.success) return effort;

    EMUTILE_CHECK(attempt < max_track_retries,
                  "unroutable with " << design.device->params().tracks_per_channel
                                     << " tracks per channel");
    DeviceParams dp = design.device->params();
    dp.tracks_per_channel += 4;
    EMUTILE_INFO("routing failed; widening channels to "
                 << dp.tracks_per_channel << " tracks");
    design.device = std::make_shared<const Device>(dp);
    design.rr = std::make_shared<const RrGraph>(*design.device);
    design.routing = std::make_unique<Routing>(*design.rr);
    design.placement->rebind(*design.device, design.packed);
  }
}

TiledDesign build_flat(Netlist netlist, const FlowParams& params) {
  TiledDesign design;
  design.netlist = std::move(netlist);
  design.packed = pack(design.netlist);

  const int clbs = static_cast<int>(design.packed.num_clbs());
  const int iobs = static_cast<int>(design.packed.num_iobs());
  EMUTILE_CHECK(clbs > 0, "design has no logic");
  const int sites =
      static_cast<int>(std::ceil(clbs * (1.0 + params.slack)));
  const DeviceParams dp = Device::size_for(
      sites, static_cast<int>(std::ceil(iobs * params.iob_margin)),
      params.tracks_per_channel);
  design.device = std::make_shared<const Device>(dp);
  design.rr = std::make_shared<const RrGraph>(*design.device);
  design.placement = std::make_unique<Placement>(*design.device, design.packed);
  design.routing = std::make_unique<Routing>(*design.rr);
  design.refresh_nets();

  Placer placer(*design.device, design.packed, design.nets);
  PlacerParams pp;
  pp.seed = params.seed;
  pp.effort = params.placer_effort;
  const PlaceResult place_res = placer.place(*design.placement, pp);
  design.build_effort.instances_placed = design.packed.live_insts().size();
  design.build_effort.place_ms = place_res.wall_ms;

  design.build_effort += route_all_with_retry(design, params.max_track_retries);
  design.slack_overhead = params.slack;
  return design;
}

PnrEffort replace_and_reroute_all(TiledDesign& design, std::uint64_t seed,
                                  double placer_effort) {
  PnrEffort effort;
  // Rip all routing.
  for (const PhysNet& n : design.nets) design.routing->rip_up(n.net);

  Placer placer(*design.device, design.packed, design.nets);
  PlacerParams pp;
  pp.seed = seed;
  pp.effort = placer_effort;
  const PlaceResult place_res = placer.place(*design.placement, pp);
  effort.instances_placed = design.packed.live_insts().size();
  effort.place_ms = place_res.wall_ms;

  effort += route_all_with_retry(design);
  return effort;
}

}  // namespace emutile
