// Tiling engine tests: grid geometry, region masks, slack-aware build,
// affected-tile expansion, and the key confinement property — an ECO must
// leave everything outside the affected tiles untouched.

#include <gtest/gtest.h>

#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/flow.hpp"
#include "core/region_mask.hpp"
#include "core/tiling_engine.hpp"
#include "test_helpers.hpp"

namespace emutile {
namespace {

TEST(TileGrid, PartitionCoversGridExactly) {
  const TileGrid g(10, 8, 4, 3);
  std::vector<int> hits(static_cast<std::size_t>(g.num_tiles()), 0);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 10; ++x) {
      const TileId t = g.tile_at(x, y);
      EXPECT_TRUE(g.rect(t).contains(x, y));
      ++hits[t.value()];
    }
  int total = 0;
  for (int t = 0; t < g.num_tiles(); ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)],
              g.capacity(TileId{static_cast<std::uint32_t>(t)}));
    total += hits[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(total, 80);
}

TEST(TileGrid, MakeApproximatesRequestedCount) {
  for (int n : {1, 4, 10, 20, 40}) {
    const TileGrid g = TileGrid::make(20, 20, n);
    EXPECT_GE(g.num_tiles(), n);
    EXPECT_LE(g.num_tiles(), 2 * n + 2);
  }
}

TEST(TileGrid, NeighborsAreSymmetricAndAdjacent) {
  const TileGrid g(9, 9, 3, 3);
  for (int t = 0; t < g.num_tiles(); ++t) {
    const TileId tile{static_cast<std::uint32_t>(t)};
    for (TileId nb : g.neighbors(tile)) {
      EXPECT_TRUE(g.adjacent(tile, nb));
      EXPECT_TRUE(g.adjacent(nb, tile));
    }
  }
  // Corner tile has 2 neighbors, center has 4.
  EXPECT_EQ(g.neighbors(g.tile_at(0, 0)).size(), 2u);
  EXPECT_EQ(g.neighbors(g.tile_at(4, 4)).size(), 4u);
}

TEST(RegionMask, InteriorRippedBoundaryAllowed) {
  const Device device(DeviceParams{8, 8, 6});
  const RrGraph rr(device);
  const TileGrid grid(8, 8, 2, 2);
  std::vector<std::uint8_t> affected(4, 0);
  affected[grid.tile_at(1, 1).value()] = 1;  // bottom-left 4x4 tile

  const RegionMasks masks = build_region_masks(rr, grid, affected);
  // A channel strictly inside the tile is ripped and allowed.
  EXPECT_TRUE(masks.rip[rr.chanx(1, 2, 0).value()]);
  EXPECT_TRUE(masks.allowed[rr.chanx(1, 2, 0).value()]);
  // The channel on the tile boundary (y=4) borders a locked tile: allowed
  // (free tracks usable) but not ripped (locked interface).
  EXPECT_FALSE(masks.rip[rr.chanx(1, 4, 0).value()]);
  EXPECT_TRUE(masks.allowed[rr.chanx(1, 4, 0).value()]);
  // Channels outside: neither.
  EXPECT_FALSE(masks.allowed[rr.chanx(6, 6, 0).value()]);
  EXPECT_FALSE(masks.rip[rr.chanx(6, 6, 0).value()]);
  // Pins of an affected site: both; pins outside: neither.
  EXPECT_TRUE(masks.rip[rr.sink(device.clb_site(1, 1)).value()]);
  EXPECT_FALSE(masks.allowed[rr.sink(device.clb_site(6, 6)).value()]);
}

TEST(RegionMask, InterfaceBetweenTwoAffectedTilesDissolves) {
  const Device device(DeviceParams{8, 8, 6});
  const RrGraph rr(device);
  const TileGrid grid(8, 8, 2, 2);
  std::vector<std::uint8_t> affected(4, 1);  // everything affected
  const RegionMasks masks = build_region_masks(rr, grid, affected);
  // The x=4 vertical channel between two affected tiles is ripped.
  EXPECT_TRUE(masks.rip[rr.chany(4, 2, 0).value()]);
}

TEST(Flow, BuildFlatProducesValidDesign) {
  FlowParams fp;
  fp.seed = 2;
  TiledDesign d = build_flat(test::make_random_netlist(60, 2), fp);
  d.validate();
  EXPECT_GT(d.packed.num_clbs(), 20u);
  EXPECT_FALSE(d.tiles.has_value());
}

class TiledBuildTest : public ::testing::Test {
 protected:
  static TiledDesign make(int luts = 80, int tiles = 6,
                          double overhead = 0.20, std::uint64_t seed = 3) {
    TilingParams tp;
    tp.seed = seed;
    tp.target_overhead = overhead;
    tp.num_tiles = tiles;
    return TilingEngine::build(test::make_random_netlist(luts, seed), tp);
  }
};

TEST_F(TiledBuildTest, BuildIsValidAndLocked) {
  TiledDesign d = make();
  d.validate();
  ASSERT_TRUE(d.tiles.has_value());
  EXPECT_GE(d.tiles->num_tiles(), 6);
  for (std::uint8_t lock : d.locked) EXPECT_EQ(lock, 1);
}

TEST_F(TiledBuildTest, SlackIsDistributedAcrossTiles) {
  TiledDesign d = make(120, 8, 0.25);
  // Every tile keeps some free sites (the user-controlled reserve).
  int tiles_with_slack = 0;
  for (int t = 0; t < d.tiles->num_tiles(); ++t)
    if (d.tile_free(TileId{static_cast<std::uint32_t>(t)}) > 0)
      ++tiles_with_slack;
  EXPECT_GE(tiles_with_slack, d.tiles->num_tiles() - 1);
}

TEST_F(TiledBuildTest, AreaOverheadNearTarget) {
  TiledDesign d = make(120, 8, 0.20);
  const double overhead =
      static_cast<double>(d.device->num_clb_sites()) /
          static_cast<double>(d.packed.num_clbs()) -
      1.0;
  EXPECT_GE(overhead, 0.15);
  EXPECT_LE(overhead, 0.45);  // integer grid rounding inflates small designs
}

TEST_F(TiledBuildTest, RejectsTooLittleOverhead) {
  TilingParams tp;
  tp.target_overhead = 0.01;
  EXPECT_THROW(TilingEngine::build(test::make_random_netlist(40, 1), tp),
               CheckError);
}

TEST_F(TiledBuildTest, ExpandForCapacityGrowsUntilFit) {
  TiledDesign d = make(120, 8, 0.20);
  const TileId seed = TileId{0};
  const auto one = TilingEngine::expand_for_capacity(d, {seed}, 1);
  EXPECT_GE(one.size(), 1u);
  const int total_free = [&] {
    int f = 0;
    for (int t = 0; t < d.tiles->num_tiles(); ++t)
      f += d.tile_free(TileId{static_cast<std::uint32_t>(t)});
    return f;
  }();
  // Asking for almost all free capacity pulls in most tiles.
  const auto many =
      TilingEngine::expand_for_capacity(d, {seed}, total_free - 1);
  EXPECT_GT(many.size(), one.size());
  // Asking for more than the device has throws.
  EXPECT_THROW(TilingEngine::expand_for_capacity(d, {seed}, total_free + 100),
               CheckError);
}

TEST_F(TiledBuildTest, ExpansionOnlyAddsNeighbors) {
  TiledDesign d = make(120, 9, 0.20);
  const auto affected =
      TilingEngine::expand_for_capacity(d, {TileId{0}}, 10);
  // The affected set must be connected (BFS from the seed covers it).
  std::unordered_set<std::uint32_t> set;
  for (TileId t : affected) set.insert(t.value());
  std::unordered_set<std::uint32_t> reached{affected[0].value()};
  std::vector<TileId> queue{affected[0]};
  // Seed is TileId{0} and affected is sorted, so affected[0] == seed.
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (TileId nb : d.tiles->neighbors(queue[head]))
      if (set.count(nb.value()) && reached.insert(nb.value()).second)
        queue.push_back(nb);
  EXPECT_EQ(reached.size(), set.size());
}

/// The confinement property (the paper's core claim): applying a change
/// leaves placement and routing outside the affected tiles bit-identical.
TEST_F(TiledBuildTest, EcoConfinementOutsideAffectedTiles) {
  TiledDesign d = make(100, 9, 0.25, 7);

  // Snapshot placement and routing.
  std::unordered_map<std::uint32_t, SiteIndex> sites_before;
  for (InstId id : d.packed.live_insts())
    sites_before[id.value()] = d.placement->site_of(id);
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> trees_before;
  for (const PhysNet& n : d.nets) {
    std::vector<std::uint32_t> nodes;
    for (RrNodeId x : d.routing->tree(n.net).nodes) nodes.push_back(x.value());
    trees_before[n.net.value()] = std::move(nodes);
  }

  // Change: add a small cone anchored at one LUT.
  CellId anchor;
  for (CellId id : d.netlist.live_cells())
    if (d.netlist.cell(id).kind == CellKind::kLut) {
      anchor = id;
      break;
    }
  const NetId tap = d.netlist.cell_output(anchor);
  EcoChange change;
  const CellId n1 =
      d.netlist.add_lut("eco_n1", TruthTable::inverter(), {tap});
  const CellId n2 = d.netlist.add_dff("eco_n2", d.netlist.cell_output(n1));
  // Keep the new logic observed so it is not dead (feeds an existing LUT?
  // no: new cells may only feed each other or be probes; a dangling DFF is
  // fine for the physical flow).
  change.added_cells = {n1, n2};
  change.anchor_cells = {anchor};

  EcoOptions opts;
  opts.seed = 5;
  const EcoOutcome out = TilingEngine::apply_change(d, change, opts);
  ASSERT_TRUE(out.success);
  d.validate();

  // Affected set as a site predicate.
  std::unordered_set<std::uint32_t> affected_tiles;
  for (TileId t : out.affected) affected_tiles.insert(t.value());
  auto site_in_affected = [&](SiteIndex s) {
    if (!d.device->is_clb_site(s)) return false;
    auto [x, y] = d.device->clb_xy(s);
    return affected_tiles.count(d.tiles->tile_at(x, y).value()) > 0;
  };

  // 1) Instances outside the affected tiles did not move.
  for (const auto& [inst, site] : sites_before) {
    if (site_in_affected(site)) continue;
    EXPECT_EQ(d.placement->site_of(InstId{inst}), site)
        << "locked instance moved";
  }

  // 2) Nets whose old tree never entered the affected region kept their
  //    exact routing.
  const RegionMasks masks = [&] {
    std::vector<std::uint8_t> ta(
        static_cast<std::size_t>(d.tiles->num_tiles()), 0);
    for (TileId t : out.affected) ta[t.value()] = 1;
    return build_region_masks(*d.rr, *d.tiles, ta);
  }();
  for (const auto& [net, nodes] : trees_before) {
    bool touched = false;
    for (std::uint32_t x : nodes)
      if (masks.rip[x]) touched = true;
    if (touched) continue;
    const RouteTree& now = d.routing->tree(NetId{net});
    ASSERT_EQ(now.nodes.size(), nodes.size()) << "locked net re-routed";
    for (std::size_t i = 0; i < nodes.size(); ++i)
      EXPECT_EQ(now.nodes[i].value(), nodes[i]);
  }

  // 3) The new instances landed inside the affected region.
  for (CellId c : change.added_cells) {
    const InstId inst = d.packed.inst_of_cell(c);
    EXPECT_TRUE(site_in_affected(d.placement->site_of(inst)));
  }
}

TEST_F(TiledBuildTest, EcoModifyOnlyTouchesOneTileForSmallChange) {
  TiledDesign d = make(100, 9, 0.25, 11);
  CellId victim;
  for (CellId id : d.netlist.live_cells())
    if (d.netlist.cell(id).kind == CellKind::kLut) victim = id;
  ASSERT_TRUE(victim.valid());
  d.netlist.set_lut_function(victim,
                             d.netlist.cell(victim).function.complement());
  EcoChange change;
  change.modified_cells = {victim};
  EcoOptions opts;
  const EcoOutcome out = TilingEngine::apply_change(d, change, opts);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.affected.size(), 1u + out.region_expansions * 8u);
  d.validate();
}

TEST_F(TiledBuildTest, EcoPreservesFunctionality) {
  // Physical re-implementation must not change behaviour: simulate before
  // and after an ECO that only adds observation-side logic.
  TiledDesign d = make(80, 6, 0.25, 13);
  const auto patterns = random_patterns(
      d.netlist.primary_inputs().size(), 64, 99);
  const auto before = test::run_patterns(d.netlist, patterns);

  CellId anchor;
  for (CellId id : d.netlist.live_cells())
    if (d.netlist.cell(id).kind == CellKind::kLut) {
      anchor = id;
      break;
    }
  EcoChange change;
  const CellId probe = d.netlist.add_lut(
      "probe", TruthTable::buffer(), {d.netlist.cell_output(anchor)});
  change.added_cells = {probe};
  change.anchor_cells = {anchor};
  ASSERT_TRUE(TilingEngine::apply_change(d, change, EcoOptions{}).success);

  const auto after = test::run_patterns(d.netlist, patterns);
  EXPECT_EQ(before, after);
  d.validate();
}

TEST(Flow, ReplaceRerouteAllKeepsValidity) {
  FlowParams fp;
  fp.seed = 21;
  fp.slack = 0.2;
  TiledDesign d = build_flat(test::make_random_netlist(60, 21), fp);
  const PnrEffort e = replace_and_reroute_all(d, 77);
  EXPECT_GT(e.instances_placed, 0u);
  EXPECT_GT(e.nets_routed, 0u);
  d.validate();
}

TEST(Flow, CloneIsDeepAndIdentical) {
  FlowParams fp;
  fp.seed = 8;
  fp.slack = 0.2;
  TiledDesign d = build_flat(test::make_random_netlist(50, 8), fp);
  TiledDesign c = d.clone();
  c.validate();
  for (InstId id : d.packed.live_insts())
    EXPECT_EQ(d.placement->site_of(id), c.placement->site_of(id));
  // Mutating the clone leaves the original untouched.
  const InstId some = d.packed.live_insts().front();
  const SiteIndex before = d.placement->site_of(some);
  c.placement->clear(some);
  EXPECT_EQ(d.placement->site_of(some), before);
}

TEST(Flow, CloneSharesDeviceAndGraph) {
  FlowParams fp;
  fp.seed = 8;
  fp.slack = 0.2;
  const TiledDesign d = build_flat(test::make_random_netlist(50, 8), fp);
  const TiledDesign c = d.clone();
  EXPECT_EQ(c.device.get(), d.device.get());
  EXPECT_EQ(c.rr.get(), d.rr.get());
  EXPECT_EQ(&c.routing->rr(), d.rr.get());
  EXPECT_EQ(&c.placement->device(), d.device.get());
  EXPECT_EQ(test::route_fingerprint(c), test::route_fingerprint(d));
}

TEST(Flow, WideningACloneLeavesBaselineUntouched) {
  FlowParams fp;
  fp.seed = 8;
  fp.slack = 0.2;
  const TiledDesign d = build_flat(test::make_random_netlist(50, 8), fp);
  const Device* device = d.device.get();
  const RrGraph* rr = d.rr.get();
  const int tracks = d.device->params().tracks_per_channel;
  const std::uint64_t trees = test::route_fingerprint(d);

  // Starve the clone to 2 tracks so its re-route must widen the channels.
  TiledDesign c = d.clone();
  DeviceParams narrow = c.device->params();
  narrow.tracks_per_channel = 2;
  c.device = std::make_shared<const Device>(narrow);
  c.rr = std::make_shared<const RrGraph>(*c.device);
  c.routing = std::make_unique<Routing>(*c.rr);
  c.placement->rebind(*c.device, c.packed);
  route_all_with_retry(c, 8);
  c.validate();
  EXPECT_GT(c.device->params().tracks_per_channel, 2);

  EXPECT_EQ(d.device.get(), device);
  EXPECT_EQ(d.rr.get(), rr);
  EXPECT_EQ(&d.routing->rr(), rr);
  EXPECT_EQ(d.device->params().tracks_per_channel, tracks);
  EXPECT_EQ(test::route_fingerprint(d), trees);
  d.validate();
}

TEST(Flow, ConcurrentReroutesOfSharedGraphClonesMatchSerial) {
  FlowParams fp;
  fp.seed = 12;
  fp.slack = 0.2;
  const TiledDesign base = build_flat(test::make_random_netlist(60, 12), fp);
  const auto reroute = [&base] {
    TiledDesign c = base.clone();
    route_all_with_retry(c);
    return test::route_fingerprint(c);
  };
  const std::uint64_t serial = reroute();
  std::uint64_t a = 0, b = 0;
  std::thread ta([&] { a = reroute(); });
  std::thread tb([&] { b = reroute(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

}  // namespace
}  // namespace emutile
