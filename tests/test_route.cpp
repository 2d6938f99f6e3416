// Router tests: full routing legality, determinized structure, partial
// rip-up with orphan reattachment, and pruning.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/flow.hpp"
#include "core/region_mask.hpp"
#include "core/tile_grid.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "test_helpers.hpp"

namespace emutile {
namespace {

/// Small fully built design (packed, placed, routed).
TiledDesign build_small(int luts = 50, std::uint64_t seed = 3,
                        int tracks = 8) {
  FlowParams fp;
  fp.seed = seed;
  fp.slack = 0.25;
  fp.tracks_per_channel = tracks;
  return build_flat(test::make_random_netlist(luts, seed), fp);
}

TEST(Router, FullRouteIsLegal) {
  TiledDesign d = build_small();
  EXPECT_EQ(d.routing->count_overused(), 0u);
  for (const PhysNet& n : d.nets) {
    ASSERT_TRUE(d.routing->has_tree(n.net));
    d.routing->validate_tree(n.net);
  }
}

TEST(Router, TreesStartAtSourceAndReachAllSinks) {
  TiledDesign d = build_small();
  for (const PhysNet& n : d.nets) {
    const RouteTree& t = d.routing->tree(n.net);
    const RrNodeId source =
        d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    EXPECT_EQ(t.nodes[0], source);
    std::unordered_set<std::uint32_t> nodes;
    for (RrNodeId x : t.nodes) nodes.insert(x.value());
    for (InstId s : n.sink_insts)
      EXPECT_TRUE(
          nodes.count(d.rr->sink(d.placement->site_of(s)).value()))
          << "sink not reached";
  }
}

TEST(Router, OccupancyMatchesTrees) {
  TiledDesign d = build_small();
  std::vector<int> occ(d.rr->num_nodes(), 0);
  for (const PhysNet& n : d.nets)
    for (RrNodeId x : d.routing->tree(n.net).nodes) ++occ[x.value()];
  for (std::size_t i = 0; i < occ.size(); ++i)
    EXPECT_EQ(occ[i],
              d.routing->occupancy(RrNodeId{static_cast<std::uint32_t>(i)}));
}

TEST(Router, PathToWalksRootToSink) {
  TiledDesign d = build_small();
  const PhysNet& n = d.nets.front();
  const RrNodeId sink = d.rr->sink(d.placement->site_of(n.sink_insts[0]));
  const auto path = d.routing->path_to(n.net, sink);
  EXPECT_EQ(path.front(),
            d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin));
  EXPECT_EQ(path.back(), sink);
}

TEST(Router, PruneToSinksDropsBranch) {
  TiledDesign d = build_small(60, 9);
  // Find a net with at least two sinks.
  const PhysNet* multi = nullptr;
  for (const PhysNet& n : d.nets)
    if (n.sink_insts.size() >= 2) {
      multi = &n;
      break;
    }
  ASSERT_NE(multi, nullptr);
  const std::size_t before = d.routing->tree(multi->net).size();
  // Keep only the first sink.
  std::vector<RrNodeId> wanted{
      d.rr->sink(d.placement->site_of(multi->sink_insts[0]))};
  d.routing->prune_to_sinks(multi->net, wanted);
  const RouteTree& t = d.routing->tree(multi->net);
  EXPECT_LT(t.size(), before);
  d.routing->validate_tree(multi->net);
  // Second sink's SINK node no longer used by this net.
  const RrNodeId dropped =
      d.rr->sink(d.placement->site_of(multi->sink_insts[1]));
  for (RrNodeId x : t.nodes) EXPECT_NE(x, dropped);
}

TEST(Router, PartialRipUpSplitsIntoGroups) {
  TiledDesign d = build_small(60, 4);
  // Rip the middle third of the device for every net crossing it.
  const int w = d.device->width();
  std::vector<std::uint8_t> rip(d.rr->num_nodes(), 0);
  for (std::size_t i = 0; i < d.rr->num_nodes(); ++i) {
    const RrNodeInfo& info = d.rr->node(RrNodeId{static_cast<std::uint32_t>(i)});
    if (info.x >= w / 3 && info.x < 2 * w / 3) rip[i] = 1;
  }
  int crossing = 0;
  for (const PhysNet& n : d.nets) {
    bool touches = false;
    for (RrNodeId x : d.routing->tree(n.net).nodes)
      if (rip[x.value()]) touches = true;
    if (!touches) continue;
    ++crossing;
    const RrNodeId src =
        d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    const RouteForest f = d.routing->rip_up_partial(n.net, rip, src);
    // Every kept node avoids the rip region; group labels are consistent.
    for (std::size_t k = 0; k < f.nodes.size(); ++k) {
      EXPECT_FALSE(rip[f.nodes[k].value()]);
      if (f.parent[k] >= 0)
        EXPECT_EQ(f.group[k], f.group[static_cast<std::size_t>(f.parent[k])]);
      else
        EXPECT_TRUE(f.group[k] == 0 ||
                    (f.group[k] > 0 && f.group[k] <= f.num_orphan_groups));
    }
    // Group 0, if present, is rooted at the source.
    for (std::size_t k = 0; k < f.nodes.size(); ++k)
      if (f.parent[k] < 0 && f.group[k] == 0) EXPECT_EQ(f.nodes[k], src);
  }
  EXPECT_GT(crossing, 0) << "test design too small to cross the strip";
}

TEST(Router, ReroutesAfterPartialRipWithKeptForest) {
  // Clear the middle column of a 3x1 tile grid using the engine's own mask
  // semantics (interior ripped, boundary channels usable but not ripped) and
  // re-route everything that crossed it against the kept stubs.
  TiledDesign d = build_small(60, 5, 12);
  const TileGrid grid(d.device->width(), d.device->height(), 3, 1);
  std::vector<std::uint8_t> tile_affected(3, 0);
  tile_affected[1] = 1;
  const RegionMasks masks = build_region_masks(*d.rr, grid, tile_affected);

  std::vector<NetTask> tasks;
  for (const PhysNet& n : d.nets) {
    bool touches = false;
    for (RrNodeId x : d.routing->tree(n.net).nodes)
      if (masks.rip[x.value()]) touches = true;
    if (!touches) continue;
    NetTask t;
    t.net = n.net;
    t.source = d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    for (InstId s : n.sink_insts)
      t.sinks.push_back(d.rr->sink(d.placement->site_of(s)));
    t.kept = d.routing->rip_up_partial(n.net, masks.rip, t.source);
    tasks.push_back(std::move(t));
  }
  ASSERT_FALSE(tasks.empty());

  Router router(*d.rr);
  RouterParams rp;
  rp.allowed_mask = &masks.allowed;
  const RouteResult res =
      router.route(std::move(tasks), *d.routing, rp);
  EXPECT_TRUE(res.success);
  EXPECT_EQ(d.routing->count_overused(), 0u);
  for (const PhysNet& n : d.nets) {
    ASSERT_TRUE(d.routing->has_tree(n.net));
    d.routing->validate_tree(n.net);
    // All sinks still reached.
    std::unordered_set<std::uint32_t> nodes;
    for (RrNodeId x : d.routing->tree(n.net).nodes) nodes.insert(x.value());
    for (InstId s : n.sink_insts)
      EXPECT_TRUE(nodes.count(d.rr->sink(d.placement->site_of(s)).value()));
  }
}

TEST(Router, FailureRestoresKeptStateCleanly) {
  // Starve the router (2 tracks) so the strip re-route must fail; the
  // routing database must come back consistent, with every task restored to
  // exactly its kept forest (locked boundary stubs intact) so the caller
  // can retry with a larger region.
  TiledDesign d = build_small(50, 3, 2);
  // A 2-track build may fail outright and widen; rebuild masks on whatever
  // device emerged, then starve a custom region.
  const int w = d.device->width();
  std::vector<std::uint8_t> rip(d.rr->num_nodes(), 0);
  std::vector<std::uint8_t> allowed(d.rr->num_nodes(), 0);
  for (std::size_t i = 0; i < d.rr->num_nodes(); ++i) {
    const RrNodeInfo& info = d.rr->node(RrNodeId{static_cast<std::uint32_t>(i)});
    // Allow only a 1-column sliver: almost everything is unroutable.
    const bool inside = info.x == w / 2;
    rip[i] = inside ? 1 : 0;
    allowed[i] = inside ? 1 : 0;
  }
  std::vector<NetTask> tasks;
  std::vector<std::pair<NetId, std::size_t>> kept_sizes;
  for (const PhysNet& n : d.nets) {
    bool touches = false;
    for (RrNodeId x : d.routing->tree(n.net).nodes)
      if (rip[x.value()]) touches = true;
    if (!touches) continue;
    NetTask t;
    t.net = n.net;
    t.source = d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    for (InstId s : n.sink_insts)
      t.sinks.push_back(d.rr->sink(d.placement->site_of(s)));
    t.kept = d.routing->rip_up_partial(n.net, rip, t.source);
    kept_sizes.emplace_back(t.net, t.kept.nodes.size());
    tasks.push_back(std::move(t));
  }
  if (tasks.empty()) GTEST_SKIP() << "no crossing nets at this seed";

  Router router(*d.rr);
  RouterParams rp;
  rp.allowed_mask = &allowed;
  const RouteResult res = router.route(std::move(tasks), *d.routing, rp);
  if (res.success) GTEST_SKIP() << "sliver unexpectedly routable";

  // Occupancy must be internally consistent and each task's tree must be
  // exactly its kept forest again.
  EXPECT_EQ(d.routing->audit_occupancy(), 0u);
  for (const auto& [net, kept_size] : kept_sizes) {
    if (kept_size == 0) {
      EXPECT_FALSE(d.routing->has_tree(net));
    } else {
      ASSERT_TRUE(d.routing->has_tree(net));
      EXPECT_EQ(d.routing->tree(net).size(), kept_size);
    }
  }
}

TEST(Router, ConfinedRouteNeverStraysOutsideMask) {
  TiledDesign d = build_small(60, 6, 12);
  const TileGrid grid(d.device->width(), d.device->height(), 2, 1);
  std::vector<std::uint8_t> tile_affected(2, 0);
  tile_affected[1] = 1;  // right half
  const RegionMasks masks = build_region_masks(*d.rr, grid, tile_affected);

  std::vector<NetTask> tasks;
  std::unordered_set<std::uint32_t> kept_nodes;
  for (const PhysNet& n : d.nets) {
    bool touches = false;
    for (RrNodeId x : d.routing->tree(n.net).nodes)
      if (masks.rip[x.value()]) touches = true;
    if (!touches) continue;
    NetTask t;
    t.net = n.net;
    t.source = d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    for (InstId s : n.sink_insts)
      t.sinks.push_back(d.rr->sink(d.placement->site_of(s)));
    t.kept = d.routing->rip_up_partial(n.net, masks.rip, t.source);
    for (RrNodeId x : t.kept.nodes) kept_nodes.insert(x.value());
    tasks.push_back(std::move(t));
  }
  std::vector<NetId> task_nets;
  for (const NetTask& t : tasks) task_nets.push_back(t.net);

  Router router(*d.rr);
  RouterParams rp;
  rp.allowed_mask = &masks.allowed;
  const RouteResult res = router.route(std::move(tasks), *d.routing, rp);
  ASSERT_TRUE(res.success);
  // Every new node of a rerouted tree is either kept or inside the mask.
  for (NetId net : task_nets)
    for (RrNodeId x : d.routing->tree(net).nodes)
      EXPECT_TRUE(kept_nodes.count(x.value()) || masks.allowed[x.value()]);
}

// Pinned results for fixed designs: a different tie order in the A* heap, a
// different cost or a different target set changes the expansion count or
// some tree. Update the values only for an intended change to routing
// results.
TEST(Router, GoldenFullRoute) {
  TiledDesign d = build_small(60, 9, 6);
  EXPECT_EQ(d.build_effort.nodes_expanded, 474349u);
  EXPECT_EQ(test::route_fingerprint(d), 0x60daa6289b5e73afULL);

  for (const PhysNet& n : d.nets) d.routing->rip_up(n.net);
  Router router(*d.rr);
  const RouteResult res = router.route(
      make_route_tasks(*d.rr, *d.placement, d.nets), *d.routing, {});
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.iterations, 7);
  EXPECT_EQ(res.nodes_expanded, 24269u);
  EXPECT_EQ(test::route_fingerprint(d), 0x60daa6289b5e73afULL);
}

TEST(Router, GoldenConfinedRouteWithKeptForest) {
  TiledDesign d = build_small(60, 5, 12);
  const TileGrid grid(d.device->width(), d.device->height(), 3, 1);
  const RegionMasks masks =
      build_region_masks(*d.rr, grid, std::vector<std::uint8_t>{0, 1, 0});
  std::vector<NetTask> tasks;
  for (const PhysNet& n : d.nets) {
    bool touches = false;
    for (RrNodeId x : d.routing->tree(n.net).nodes)
      if (masks.rip[x.value()]) touches = true;
    if (!touches) continue;
    NetTask t;
    t.net = n.net;
    t.source = d.rr->opin(d.placement->site_of(n.src_inst), n.src_opin);
    for (InstId s : n.sink_insts)
      t.sinks.push_back(d.rr->sink(d.placement->site_of(s)));
    t.kept = d.routing->rip_up_partial(n.net, masks.rip, t.source);
    tasks.push_back(std::move(t));
  }
  ASSERT_FALSE(tasks.empty());

  Router router(*d.rr);
  RouterParams rp;
  rp.allowed_mask = &masks.allowed;
  const RouteResult res = router.route(std::move(tasks), *d.routing, rp);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.nodes_expanded, 3022u);
  EXPECT_EQ(test::route_fingerprint(d), 0xc667138fddbe80f9ULL);
}

}  // namespace
}  // namespace emutile
