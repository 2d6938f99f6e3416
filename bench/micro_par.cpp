/// Supporting micro-benchmarks (google-benchmark): throughput of the
/// substrate kernels the experiments rest on — packing, placement, routing,
/// simulation, and one tiled ECO. Not a paper table; included so substrate
/// regressions are visible independently of the harnesses.

#include <benchmark/benchmark.h>

#include "core/flow.hpp"
#include "core/tiling_engine.hpp"
#include "designs/catalog.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "synth/packer.hpp"

using namespace emutile;

namespace {

const Netlist& c880() {
  static const Netlist nl = build_paper_design("c880", 1);
  return nl;
}

void BM_Pack(benchmark::State& state) {
  const Netlist& nl = c880();
  for (auto _ : state) {
    PackedDesign packed = pack(nl);
    benchmark::DoNotOptimize(packed.num_clbs());
  }
}
BENCHMARK(BM_Pack)->Unit(benchmark::kMillisecond);

void BM_PlaceFull(benchmark::State& state) {
  const Netlist& nl = c880();
  const PackedDesign packed = pack(nl);
  const Device device(Device::size_for(
      static_cast<int>(packed.num_clbs() * 1.2) + 1,
      static_cast<int>(packed.num_iobs() * 1.25) + 1, 12));
  const auto nets = packed.physical_nets(nl);
  for (auto _ : state) {
    Placement placement(device, packed);
    Placer placer(device, packed, nets);
    PlacerParams pp;
    pp.seed = 7;
    const PlaceResult r = placer.place(placement, pp);
    benchmark::DoNotOptimize(r.final_cost);
  }
}
BENCHMARK(BM_PlaceFull)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_RouteFull(benchmark::State& state) {
  FlowParams fp;
  fp.seed = 7;
  fp.slack = 0.2;
  fp.tracks_per_channel = 12;
  TiledDesign d = build_flat(build_paper_design("c880", 1), fp);
  for (auto _ : state) {
    for (const PhysNet& n : d.nets) d.routing->rip_up(n.net);
    Router router(*d.rr);
    auto tasks = make_route_tasks(*d.rr, *d.placement, d.nets);
    const RouteResult r =
        router.route(std::move(tasks), *d.routing, RouterParams{});
    if (!r.success) state.SkipWithError("routing failed");
    benchmark::DoNotOptimize(r.nodes_expanded);
  }
}
BENCHMARK(BM_RouteFull)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_SimulateCycles(benchmark::State& state) {
  const Netlist& nl = c880();
  Simulator sim(nl);
  sim.reset();
  const Pattern p(nl.primary_inputs().size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulateCycles);

void BM_TiledEco(benchmark::State& state) {
  TilingParams tp;
  tp.seed = 7;
  tp.num_tiles = 10;
  tp.tracks_per_channel = 12;
  TiledDesign base = TilingEngine::build(build_paper_design("c880", 1), tp);
  for (auto _ : state) {
    state.PauseTiming();
    TiledDesign d = base.clone();
    CellId victim;
    for (CellId id : d.netlist.live_cells())
      if (d.netlist.cell(id).kind == CellKind::kLut) victim = id;
    d.netlist.set_lut_function(victim,
                               d.netlist.cell(victim).function.complement());
    EcoChange change;
    change.modified_cells = {victim};
    state.ResumeTiming();
    const EcoOutcome out = TilingEngine::apply_change(d, change, EcoOptions{});
    if (!out.success) state.SkipWithError("ECO failed");
    benchmark::DoNotOptimize(out.effort.instances_placed);
  }
}
BENCHMARK(BM_TiledEco)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
