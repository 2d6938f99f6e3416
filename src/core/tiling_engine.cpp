#include "core/tiling_engine.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/flow.hpp"
#include "core/region_mask.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace emutile {

TiledDesign TilingEngine::build(Netlist netlist, const TilingParams& params) {
  EMUTILE_CHECK(params.target_overhead >= 0.05,
                "overhead below 5% leaves no room for logic introduction "
                "(paper: 10% is the practical floor)");

  // Steps 1-2 happened upstream (synthesis/mapping). Implement with slack.
  FlowParams fp;
  fp.seed = params.seed;
  fp.placer_effort = params.placer_effort;
  fp.slack = params.target_overhead;
  fp.tracks_per_channel = params.tracks_per_channel;
  TiledDesign design = build_flat(std::move(netlist), fp);

  // Step 6: draw tile boundaries.
  TileGrid grid = TileGrid::make(design.device->width(),
                                 design.device->height(), params.num_tiles);

  // Balance slack across tiles: every tile's occupancy is capped so that it
  // retains roughly its share of the reserve ("a user-controlled parameter",
  // step 5). The global placement already spread instances; we only need to
  // shed overflow from tiles above their cap into the nearest tiles with
  // room, then re-anneal within tile regions.
  const int num_tiles = grid.num_tiles();
  const double keep_free =
      params.target_overhead / (1.0 + params.target_overhead);
  std::vector<int> cap(static_cast<std::size_t>(num_tiles));
  int cap_total = 0;
  for (int t = 0; t < num_tiles; ++t) {
    const int area = grid.capacity(TileId{static_cast<std::uint32_t>(t)});
    cap[static_cast<std::size_t>(t)] = std::max(
        1, static_cast<int>(std::floor(area * (1.0 - keep_free))));
    cap_total += cap[static_cast<std::size_t>(t)];
  }
  const int clbs = static_cast<int>(design.packed.num_clbs());
  for (int t = 0; cap_total < clbs; t = (t + 1) % num_tiles) {
    // Top up rounding losses, but never beyond a tile's physical area
    // (fine grids have 2-3 site tiles where the cap formula rounds to 0).
    const int area = grid.capacity(TileId{static_cast<std::uint32_t>(t)});
    if (cap[static_cast<std::size_t>(t)] >= area) continue;
    ++cap[static_cast<std::size_t>(t)];
    ++cap_total;
  }

  // Current per-tile population.
  std::vector<std::vector<InstId>> members(
      static_cast<std::size_t>(num_tiles));
  for (InstId id : design.packed.live_insts()) {
    if (!design.packed.inst(id).is_clb()) continue;
    auto [x, y] = design.device->clb_xy(design.placement->site_of(id));
    members[grid.tile_at(x, y).value()].push_back(id);
  }

  // Shed overflow to nearest tiles with headroom (BFS over tile adjacency).
  std::vector<int> assignment(design.packed.inst_bound(), -1);
  std::vector<int> load(static_cast<std::size_t>(num_tiles), 0);
  for (int t = 0; t < num_tiles; ++t)
    for (InstId id : members[static_cast<std::size_t>(t)])
      assignment[id.value()] = t;
  for (int t = 0; t < num_tiles; ++t)
    load[static_cast<std::size_t>(t)] =
        static_cast<int>(members[static_cast<std::size_t>(t)].size());

  for (int t = 0; t < num_tiles; ++t) {
    while (load[static_cast<std::size_t>(t)] > cap[static_cast<std::size_t>(t)]) {
      // BFS for the nearest tile with room.
      std::vector<int> dist(static_cast<std::size_t>(num_tiles), -1);
      std::vector<int> queue{t};
      dist[static_cast<std::size_t>(t)] = 0;
      int target = -1;
      for (std::size_t head = 0; head < queue.size() && target < 0; ++head) {
        for (TileId nb : grid.neighbors(
                 TileId{static_cast<std::uint32_t>(queue[head])})) {
          const int n = static_cast<int>(nb.value());
          if (dist[static_cast<std::size_t>(n)] >= 0) continue;
          dist[static_cast<std::size_t>(n)] =
              dist[static_cast<std::size_t>(queue[head])] + 1;
          queue.push_back(n);
          if (load[static_cast<std::size_t>(n)] <
              cap[static_cast<std::size_t>(n)]) {
            target = n;
            break;
          }
        }
      }
      EMUTILE_CHECK(target >= 0, "cannot balance slack across tiles");
      // Move the instance closest to the target tile.
      const Rect& tr = grid.rect(TileId{static_cast<std::uint32_t>(target)});
      const double cx = 0.5 * (tr.x0 + tr.x1), cy = 0.5 * (tr.y0 + tr.y1);
      auto& pool = members[static_cast<std::size_t>(t)];
      std::size_t best = 0;
      double best_d = 1e300;
      for (std::size_t k = 0; k < pool.size(); ++k) {
        auto [px, py] = design.placement->position(pool[k]);
        const double d = std::abs(px - cx) + std::abs(py - cy);
        if (d < best_d) {
          best_d = d;
          best = k;
        }
      }
      const InstId moved = pool[best];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
      members[static_cast<std::size_t>(target)].push_back(moved);
      assignment[moved.value()] = target;
      --load[static_cast<std::size_t>(t)];
      ++load[static_cast<std::size_t>(target)];
    }
  }

  // Re-place within tile regions (warm start: only re-seed instances whose
  // assigned tile changed, then low-temperature refinement).
  PlaceConstraints constraints(design.packed.inst_bound());
  std::vector<int> region_of_tile(static_cast<std::size_t>(num_tiles), -1);
  for (int t = 0; t < num_tiles; ++t)
    region_of_tile[static_cast<std::size_t>(t)] = constraints.add_region(
        {grid.rect(TileId{static_cast<std::uint32_t>(t)})});
  for (InstId id : design.packed.live_insts()) {
    if (!design.packed.inst(id).is_clb()) continue;
    const int t = assignment[id.value()];
    EMUTILE_ASSERT(t >= 0, "CLB instance without tile assignment");
    constraints.assign_region(id, region_of_tile[static_cast<std::size_t>(t)]);
    auto [x, y] = design.device->clb_xy(design.placement->site_of(id));
    if (grid.tile_at(x, y).value() != static_cast<std::uint32_t>(t))
      design.placement->clear(id);
  }

  Placer placer(*design.device, design.packed, design.nets);
  PlacerParams pp;
  pp.seed = params.seed ^ 0x7175ULL;
  pp.effort = params.placer_effort;
  pp.incremental = true;  // refine from the global placement
  const PlaceResult pres = placer.place(*design.placement, pp, constraints);
  design.build_effort.place_ms += pres.wall_ms;

  // Add routing headroom: debugging ECOs re-route against locked boundary
  // stubs, which needs more freedom than the unconstrained initial route.
  if (params.route_headroom > 0) {
    DeviceParams dp = design.device->params();
    dp.tracks_per_channel += params.route_headroom;
    design.device = std::make_shared<const Device>(dp);
    design.rr = std::make_shared<const RrGraph>(*design.device);
    design.routing = std::make_unique<Routing>(*design.rr);
    design.placement->rebind(*design.device, design.packed);
  }

  // Step 20 equivalent for the initial build: full routing on the tiled
  // placement. (The global route from build_flat is discarded.)
  design.build_effort += route_all_with_retry(design);

  // Steps 6-7: record grid, lock everything.
  design.tiles = std::move(grid);
  design.locked.assign(static_cast<std::size_t>(num_tiles), 1);
  design.slack_overhead = params.target_overhead;
  return design;
}

bool TilingEngine::lut_reconfig_equivalent(const Netlist& a,
                                           const Netlist& b) {
  if (a.cell_bound() != b.cell_bound() || a.net_bound() != b.net_bound())
    return false;
  for (std::size_t i = 0; i < a.cell_bound(); ++i) {
    const CellId id{static_cast<std::uint32_t>(i)};
    const Cell& ca = a.cell(id);
    const Cell& cb = b.cell(id);
    if (ca.alive != cb.alive) return false;
    if (!ca.alive) continue;
    if (ca.kind != cb.kind || ca.inputs != cb.inputs ||
        ca.output != cb.output)
      return false;
  }
  return true;
}

TiledDesign TilingEngine::rebase(const TiledDesign& baseline,
                                 Netlist netlist) {
  EMUTILE_CHECK(lut_reconfig_equivalent(baseline.netlist, netlist),
                "rebase needs a LUT-reconfiguration-equivalent netlist "
                "(connectivity changes need a cold build or a tiled ECO)");
  TiledDesign out = baseline.clone();
  out.netlist = std::move(netlist);
  return out;
}

void TilingEngine::retile(TiledDesign& design, int num_tiles) {
  EMUTILE_CHECK(design.device != nullptr, "retile needs a built design");
  TileGrid grid = TileGrid::make(design.device->width(),
                                 design.device->height(), num_tiles);
  const int tiles = grid.num_tiles();
  design.tiles = std::move(grid);
  design.locked.assign(static_cast<std::size_t>(tiles), 1);
}

std::vector<TileId> TilingEngine::expand_for_capacity(
    const TiledDesign& design, std::vector<TileId> seeds, int clbs_needed) {
  EMUTILE_CHECK(design.tiles.has_value(), "design is not tiled");
  const TileGrid& grid = *design.tiles;
  std::vector<std::uint8_t> in_set(
      static_cast<std::size_t>(grid.num_tiles()), 0);
  std::vector<TileId> affected;
  int free_total = 0;
  auto add_tile = [&](TileId t) {
    if (in_set[t.value()]) return;
    in_set[t.value()] = 1;
    affected.push_back(t);
    free_total += design.tile_free(t);
  };
  EMUTILE_CHECK(!seeds.empty(), "affected-tile expansion needs a seed");
  for (TileId s : seeds) add_tile(s);

  // Absorb neighbors (paper 4.2): repeatedly take the frontier tile with the
  // most free sites until the request fits.
  while (free_total < clbs_needed) {
    TileId best;
    int best_free = -1;
    for (TileId t : affected)
      for (TileId nb : grid.neighbors(t)) {
        if (in_set[nb.value()]) continue;
        const int f = design.tile_free(nb);
        if (f > best_free) {
          best_free = f;
          best = nb;
        }
      }
    EMUTILE_CHECK(best.valid(), "design is full: cannot place "
                                    << clbs_needed << " new CLBs ("
                                    << free_total << " sites free)");
    add_tile(best);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

namespace {

/// Collect the seed tiles of a change: the tiles holding the anchors, the
/// modified cells, and any placed instance already connected to an added
/// cell (paper step 16: test-point locations).
std::vector<TileId> seed_tiles(const TiledDesign& design,
                               const EcoChange& change) {
  std::unordered_set<std::uint32_t> tiles;
  auto add_cell = [&](CellId cell) {
    const InstId inst = design.packed.inst_of_cell(cell);
    if (!inst.valid() || !design.packed.inst(inst).is_clb()) return;
    if (!design.placement->is_placed(inst)) return;
    auto [x, y] =
        design.device->clb_xy(design.placement->site_of(inst));
    tiles.insert(design.tiles->tile_at(x, y).value());
  };
  for (CellId c : change.anchor_cells) add_cell(c);
  for (CellId c : change.modified_cells) add_cell(c);
  for (CellId c : change.added_cells) {
    // Neighbors of added logic through its nets.
    const Cell& cell = design.netlist.cell(c);
    for (NetId in : cell.inputs) add_cell(design.netlist.net(in).driver);
    if (cell.output.valid())
      for (const PinRef& pin : design.netlist.net(cell.output).sinks)
        add_cell(pin.cell);
  }
  std::vector<TileId> out;
  out.reserve(tiles.size());
  for (std::uint32_t t : tiles) out.push_back(TileId{t});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

EcoOutcome TilingEngine::apply_change(TiledDesign& design,
                                      const EcoChange& change,
                                      const EcoOptions& options) {
  EMUTILE_CHECK(design.tiles.has_value(), "design is not tiled");
  const TileGrid& grid = *design.tiles;
  EcoOutcome outcome;

  // Step: pack new cells into fresh CLBs (consuming tile slack).
  const std::vector<InstId> new_insts =
      pack_increment(design.packed, design.netlist, change.added_cells);
  design.placement->resize_for(design.packed);
  design.refresh_nets();

  // Step 17: identify affected tiles (seeds + capacity expansion).
  std::vector<TileId> seeds = seed_tiles(design, change);
  if (seeds.empty() && !new_insts.empty())
    seeds.push_back(TileId{0});  // free-standing logic: arbitrary seed
  EMUTILE_CHECK(!seeds.empty(), "change with no anchors and no additions");
  std::vector<TileId> affected = expand_for_capacity(
      design, seeds, static_cast<int>(new_insts.size()));

  // Original kept-forest per rerouted net, preserved across region retries.
  std::unordered_map<std::uint32_t, RouteForest> forests;
  std::unordered_set<std::uint32_t> task_nets;

  for (int attempt = 0; ; ++attempt) {
    std::vector<std::uint8_t> tile_affected(
        static_cast<std::size_t>(grid.num_tiles()), 0);
    for (TileId t : affected) tile_affected[t.value()] = 1;
    const RegionMasks masks = build_region_masks(*design.rr, grid,
                                                 tile_affected);

    // --- step 17 (cont.): clear the affected tiles ---
    // Rip routing: every net whose tree enters the rip region, plus every
    // net with a terminal on an affected or new instance.
    std::unordered_set<std::uint32_t> affected_insts;
    for (TileId t : affected)
      for (InstId id : design.insts_in_tile(t))
        affected_insts.insert(id.value());
    for (InstId id : new_insts) affected_insts.insert(id.value());

    for (const PhysNet& pn : design.nets) {
      bool need = task_nets.count(pn.net.value()) > 0;
      if (!need) {
        if (affected_insts.count(pn.src_inst.value())) need = true;
        for (InstId s : pn.sink_insts)
          if (affected_insts.count(s.value())) need = true;
      }
      if (!need && design.routing->has_tree(pn.net)) {
        for (RrNodeId n : design.routing->tree(pn.net).nodes)
          if (masks.rip[n.value()]) {
            need = true;
            break;
          }
      }
      if (!need) continue;
      task_nets.insert(pn.net.value());
      // Rip (or re-rip after a failed attempt) against the current mask.
      // The source OPIN may be stale if the source instance moves; partial
      // rip only needs it to label the surviving source component, and a
      // moved source's old OPIN is always inside the rip region, so any
      // valid node id works for the comparison.
      RrNodeId src_hint;
      if (design.placement->is_placed(pn.src_inst))
        src_hint = design.rr->opin(design.placement->site_of(pn.src_inst),
                                   pn.src_opin);
      if (design.routing->has_tree(pn.net)) {
        RouteForest f =
            design.routing->rip_up_partial(pn.net, masks.rip, src_hint);
        // Prune orphan groups that carry no sink: dead stubs left by sinks
        // that moved into the region. Their wires are freed.
        if (f.num_orphan_groups > 0) {
          std::vector<std::uint8_t> has_sink(
              static_cast<std::size_t>(f.num_orphan_groups) + 1, 0);
          for (std::size_t i = 0; i < f.nodes.size(); ++i)
            if (design.rr->node(f.nodes[i]).type == RrType::kSink)
              has_sink[static_cast<std::size_t>(f.group[i])] = 1;
          RouteForest pruned;
          std::vector<std::int32_t> remap(f.nodes.size(), -1);
          std::vector<std::int32_t> group_remap(
              static_cast<std::size_t>(f.num_orphan_groups) + 1, -1);
          group_remap[0] = 0;
          for (std::size_t i = 0; i < f.nodes.size(); ++i) {
            const auto g = static_cast<std::size_t>(f.group[i]);
            if (g != 0 && !has_sink[g]) continue;
            if (g != 0 && group_remap[g] < 0)
              group_remap[g] = ++pruned.num_orphan_groups;
            remap[i] = static_cast<std::int32_t>(pruned.nodes.size());
            pruned.nodes.push_back(f.nodes[i]);
            pruned.parent.push_back(
                f.parent[i] < 0
                    ? -1
                    : remap[static_cast<std::size_t>(f.parent[i])]);
            pruned.group.push_back(group_remap[g]);
          }
          f = std::move(pruned);
        }
        forests[pn.net.value()] = std::move(f);
      } else if (!forests.count(pn.net.value())) {
        forests[pn.net.value()] = RouteForest{};
      }
    }

    // Clear placement of affected instances.
    for (std::uint32_t iv : affected_insts) {
      const InstId id{iv};
      if (design.placement->is_placed(id)) design.placement->clear(id);
    }

    // --- step 20a: re-place within the affected region ---
    PlaceConstraints constraints(design.packed.inst_bound());
    std::vector<Rect> rects;
    rects.reserve(affected.size());
    for (TileId t : affected) rects.push_back(grid.rect(t));
    const int region = constraints.add_region(std::move(rects));
    for (InstId id : design.packed.live_insts()) {
      const bool mov = affected_insts.count(id.value()) > 0;
      constraints.set_movable(id, mov);
      if (mov) constraints.assign_region(id, region);
    }

    Placer placer(*design.device, design.packed, design.nets);
    PlacerParams pp;
    pp.seed = options.seed + static_cast<std::uint64_t>(attempt) * 0x9E37ULL;
    pp.effort = options.placer_effort;
    const PlaceResult pres = placer.place(*design.placement, pp, constraints);
    outcome.effort.instances_placed += affected_insts.size();
    outcome.effort.place_ms += pres.wall_ms;

    // --- step 20b: re-route the affected nets against locked interfaces ---
    std::vector<NetTask> tasks;
    std::unordered_map<std::uint32_t, const PhysNet*> net_by_id;
    for (const PhysNet& pn : design.nets) net_by_id[pn.net.value()] = &pn;
    for (std::uint32_t nv : task_nets) {
      auto it = net_by_id.find(nv);
      if (it == net_by_id.end()) continue;  // net vanished from phys list
      const PhysNet& pn = *it->second;
      NetTask t;
      t.net = pn.net;
      t.source = design.rr->opin(design.placement->site_of(pn.src_inst),
                                 pn.src_opin);
      for (InstId s : pn.sink_insts)
        t.sinks.push_back(design.rr->sink(design.placement->site_of(s)));
      t.kept = forests.at(nv);
      tasks.push_back(std::move(t));
    }

    Router router(*design.rr);
    RouterParams rp;
    rp.allowed_mask = &masks.allowed;
    const RouteResult rres =
        router.route(std::move(tasks), *design.routing, rp);
    outcome.effort.nets_routed += rres.nets_routed;
    outcome.effort.nodes_expanded += rres.nodes_expanded;
    outcome.effort.route_ms += rres.wall_ms;

    if (rres.success) {
      outcome.success = true;
      outcome.affected = affected;
      outcome.region_expansions = attempt;
      return outcome;
    }

    // Step: not enough routing freedom — absorb a ring of neighbors and
    // retry (paper 4.2: neighboring tiles contribute resources). When the
    // region is already the whole device (or expansions are exhausted),
    // fall back to a full re-route — the paper's bound that tiled effort
    // never exceeds the non-tiled approach.
    const bool whole_device =
        static_cast<int>(affected.size()) == grid.num_tiles();
    if (whole_device || attempt >= options.max_region_expansions) {
      EMUTILE_INFO("ECO falling back to full re-route");
      outcome.effort += route_all_with_retry(design);
      outcome.success = true;
      outcome.affected = affected;
      outcome.region_expansions = attempt + 1;
      return outcome;
    }
    std::unordered_set<std::uint32_t> grown;
    for (TileId t : affected) {
      grown.insert(t.value());
      for (TileId nb : grid.neighbors(t)) grown.insert(nb.value());
    }
    affected.clear();
    for (std::uint32_t t : grown) affected.push_back(TileId{t});
    std::sort(affected.begin(), affected.end());
    EMUTILE_INFO("ECO region expanded to " << affected.size() << " tiles");
  }
}

}  // namespace emutile
