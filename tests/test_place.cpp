// Placement state and annealer tests.

#include <gtest/gtest.h>

#include "place/placer.hpp"
#include "test_helpers.hpp"

namespace emutile {
namespace {

struct PlaceFixture {
  Netlist nl;
  PackedDesign packed;
  Device device;
  std::vector<PhysNet> nets;

  explicit PlaceFixture(int luts = 60, std::uint64_t seed = 5,
                        double extra = 0.3)
      : nl(test::make_random_netlist(luts, seed)),
        packed(pack(nl)),
        device(Device(Device::size_for(
            static_cast<int>(packed.num_clbs() * (1.0 + extra)) + 1,
            static_cast<int>(packed.num_iobs() + 4), 8))),
        nets(packed.physical_nets(nl)) {}
};

TEST(Placement, SetMoveSwapClear) {
  PlaceFixture f(10);
  Placement p(f.device, f.packed);
  const auto insts = f.packed.live_insts();
  InstId a, b;
  for (InstId id : insts)
    if (f.packed.inst(id).is_clb()) {
      if (!a.valid())
        a = id;
      else if (!b.valid())
        b = id;
    }
  ASSERT_TRUE(a.valid() && b.valid());
  p.set(a, f.device.clb_site(0, 0));
  p.set(b, f.device.clb_site(1, 0));
  EXPECT_EQ(p.inst_at(f.device.clb_site(0, 0)), a);
  p.swap(a, b);
  EXPECT_EQ(p.inst_at(f.device.clb_site(0, 0)), b);
  p.move(a, f.device.clb_site(2, 2));
  EXPECT_EQ(p.site_of(a), f.device.clb_site(2, 2));
  p.clear(a);
  EXPECT_FALSE(p.is_placed(a));
  EXPECT_THROW(p.set(b, f.device.clb_site(2, 1)), CheckError);  // b placed
}

TEST(Placement, RejectsWrongSiteClass) {
  PlaceFixture f(10);
  Placement p(f.device, f.packed);
  InstId clb, iob;
  for (InstId id : f.packed.live_insts()) {
    if (f.packed.inst(id).is_clb() && !clb.valid()) clb = id;
    if (!f.packed.inst(id).is_clb() && !iob.valid()) iob = id;
  }
  EXPECT_THROW(p.set(clb, f.device.iob_site(0)), CheckError);
  EXPECT_THROW(p.set(iob, f.device.clb_site(0, 0)), CheckError);
}

TEST(Placer, ProducesLegalPlacement) {
  PlaceFixture f(60);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams params;
  params.seed = 3;
  placer.place(p, params);
  p.validate(f.packed);
}

TEST(Placer, ImprovesWirelength) {
  PlaceFixture f(80);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams params;
  params.seed = 3;
  const PlaceResult r = placer.place(p, params);
  EXPECT_LT(r.final_cost, r.initial_cost);
  EXPECT_GT(r.moves_accepted, 0u);
  EXPECT_NEAR(placer.wirelength_cost(p), r.final_cost, 1e-6 * r.final_cost + 1e-9);
}

TEST(Placer, DeterministicForSeed) {
  PlaceFixture f(40);
  Placement p1(f.device, f.packed), p2(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams params;
  params.seed = 11;
  placer.place(p1, params);
  placer.place(p2, params);
  for (InstId id : f.packed.live_insts())
    EXPECT_EQ(p1.site_of(id), p2.site_of(id));
}

TEST(Placer, HonorsPinnedInstances) {
  PlaceFixture f(40);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);

  // Pre-place one CLB and pin it.
  InstId pinned;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb()) {
      pinned = id;
      break;
    }
  const SiteIndex home = f.device.clb_site(0, 0);
  p.set(pinned, home);
  PlaceConstraints cons(f.packed.inst_bound());
  cons.set_movable(pinned, false);
  PlacerParams params;
  params.seed = 2;
  placer.place(p, params, cons);
  EXPECT_EQ(p.site_of(pinned), home);
  p.validate(f.packed);
}

TEST(Placer, HonorsRegionConstraint) {
  PlaceFixture f(30);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlaceConstraints cons(f.packed.inst_bound());
  const Rect region{0, 0, 3, 3};
  std::vector<InstId> constrained;
  int count = 0;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb() && count++ < 6) {
      cons.set_region(id, region);
      constrained.push_back(id);
    }
  PlacerParams params;
  params.seed = 4;
  placer.place(p, params, cons);
  for (InstId id : constrained) {
    auto [x, y] = f.device.clb_xy(p.site_of(id));
    EXPECT_TRUE(region.contains(x, y));
  }
  p.validate(f.packed);
}

TEST(Placer, HonorsMultiRectRegion) {
  PlaceFixture f(30);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlaceConstraints cons(f.packed.inst_bound());
  // Both rects must fit the small test device (~5x5).
  const std::vector<Rect> rects{{0, 0, 2, 2}, {3, 3, 5, 5}};
  const int region = cons.add_region(rects);
  std::vector<InstId> constrained;
  int count = 0;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb() && count++ < 5) {
      cons.assign_region(id, region);
      constrained.push_back(id);
    }
  PlacerParams params;
  params.seed = 4;
  placer.place(p, params, cons);
  for (InstId id : constrained) {
    auto [x, y] = f.device.clb_xy(p.site_of(id));
    EXPECT_TRUE(rects[0].contains(x, y) || rects[1].contains(x, y));
  }
}

TEST(Placer, RegionCapacityOverflowThrows) {
  PlaceFixture f(30);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlaceConstraints cons(f.packed.inst_bound());
  const Rect tiny{0, 0, 1, 1};  // one site
  int count = 0;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb() && count++ < 3) cons.set_region(id, tiny);
  PlacerParams params;
  EXPECT_THROW(placer.place(p, params, cons), CheckError);
}

TEST(Placer, IncrementalKeepsLegalityAndImproves) {
  PlaceFixture f(60);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams full;
  full.seed = 9;
  placer.place(p, full);
  const double cost_after_full = placer.wirelength_cost(p);

  // Perturb: swap a few instances, then refine incrementally.
  std::vector<InstId> clbs;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb()) clbs.push_back(id);
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(clbs.size(), 8); i += 2)
    p.swap(clbs[i], clbs[i + 1]);
  const double perturbed = placer.wirelength_cost(p);

  PlacerParams inc;
  inc.seed = 10;
  inc.incremental = true;
  placer.place(p, inc);
  p.validate(f.packed);
  EXPECT_LE(placer.wirelength_cost(p), perturbed + 1e-9);
  (void)cost_after_full;
}

TEST(Placer, SeedsUnplacedNearNeighborsInIncrementalMode) {
  PlaceFixture f(40);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams full;
  full.seed = 1;
  placer.place(p, full);

  // Unplace one instance with neighbors, reseed incrementally with zero
  // effort: it should land near its connections, not across the die.
  InstId victim;
  for (const PhysNet& n : f.nets)
    if (!n.sink_insts.empty() && f.packed.inst(n.src_inst).is_clb()) {
      victim = n.src_inst;
      break;
    }
  ASSERT_TRUE(victim.valid());
  p.clear(victim);

  PlacerParams inc;
  inc.incremental = true;
  inc.effort = 0.01;
  placer.place(p, inc);
  EXPECT_TRUE(p.is_placed(victim));
  p.validate(f.packed);
}

std::uint64_t site_fingerprint(const Placement& p,
                               const PackedDesign& packed) {
  test::Fingerprint fp;
  for (InstId id : packed.live_insts()) {
    fp.add(id.value());
    fp.add(p.site_of(id));
  }
  return fp.value;
}

// Pinned results for one netlist and seed: the cost must match bit for bit,
// so any change to the cost arithmetic, the move order or the nearest-site
// scan shows up as a different cost, acceptance count or placement. Update
// the values only for an intended change to placement results.
TEST(Placer, GoldenFromScratchAndIncremental) {
  PlaceFixture f(60);
  Placement p(f.device, f.packed);
  Placer placer(f.device, f.packed, f.nets);
  PlacerParams full;
  full.seed = 9;
  const PlaceResult r = placer.place(p, full);
  EXPECT_EQ(r.final_cost, 0x1.b9c72b020c48ap+8);
  EXPECT_EQ(r.moves_accepted, 8854u);
  EXPECT_EQ(site_fingerprint(p, f.packed), 0x2202df648f79beb1ULL);

  // Unplace a few CLBs so the incremental run reseeds them next to their
  // neighbours, then refine inside a region.
  std::vector<InstId> clbs;
  for (InstId id : f.packed.live_insts())
    if (f.packed.inst(id).is_clb()) clbs.push_back(id);
  for (std::size_t i = 0; i < clbs.size(); i += 7) p.clear(clbs[i]);
  PlaceConstraints cons(f.packed.inst_bound());
  cons.set_region(clbs[0], Rect{0, 0, 3, 3});
  PlacerParams inc;
  inc.seed = 10;
  inc.incremental = true;
  const PlaceResult ri = placer.place(p, inc, cons);
  p.validate(f.packed);
  EXPECT_EQ(ri.final_cost, 0x1.b6b1d14e3bcd7p+8);
  EXPECT_EQ(ri.moves_accepted, 345u);
  EXPECT_EQ(site_fingerprint(p, f.packed), 0xd908ac1ff771bb93ULL);
}

}  // namespace
}  // namespace emutile
