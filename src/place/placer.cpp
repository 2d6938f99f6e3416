#include "place/placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"

namespace emutile {

int PlaceConstraints::add_region(std::vector<Rect> rects) {
  EMUTILE_CHECK(!rects.empty(), "region needs at least one rect");
  for (const Rect& r : rects)
    EMUTILE_CHECK(r.area() > 0, "empty placement region rect");
  regions_.push_back(std::move(rects));
  return static_cast<int>(regions_.size()) - 1;
}

void PlaceConstraints::assign_region(InstId inst, int region_index) {
  EMUTILE_CHECK(region_index >= 0 &&
                    region_index < static_cast<int>(regions_.size()),
                "bad region index");
  region_.at(inst.value()) = region_index;
}

void PlaceConstraints::set_region(InstId inst, const Rect& r) {
  assign_region(inst, add_region({r}));
}

bool PlaceConstraints::site_allowed(const Device& device, InstId inst,
                                    SiteIndex site) const {
  if (!device.is_clb_site(site)) return true;  // IOBs: class check elsewhere
  const int r = region_index(inst);
  if (r < 0) return true;
  auto [x, y] = device.clb_xy(site);
  for (const Rect& rect : regions_[static_cast<std::size_t>(r)])
    if (rect.contains(x, y)) return true;
  return false;
}

Placer::Placer(const Device& device, const PackedDesign& packed,
               std::span<const PhysNet> nets)
    : device_(&device), packed_(&packed), nets_(nets) {
  nets_of_inst_.resize(packed.inst_bound());
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    const PhysNet& n = nets_[i];
    nets_of_inst_[n.src_inst.value()].push_back(i);
    for (InstId s : n.sink_insts)
      if (s != n.src_inst) nets_of_inst_[s.value()].push_back(i);
    net_q_.push_back(crossing_factor(n.sink_insts.size() + 1));
  }
  center2_.resize(static_cast<std::size_t>(device.num_sites()));
  for (SiteIndex s = 0; s < center2_.size(); ++s) {
    auto [x, y] = device.site_center(s);
    center2_[s] = {static_cast<int>(2.0 * x), static_cast<int>(2.0 * y)};
  }
}

double Placer::crossing_factor(std::size_t terminals) {
  // VPR's q(t) crossing-count correction (Cheng, 1994).
  static constexpr double kQ[] = {1.0,    1.0,    1.0,    1.0,    1.0828,
                                  1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
                                  1.4493, 1.4974, 1.5455, 1.5937, 1.6418,
                                  1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
                                  1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
                                  2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
                                  2.2334, 2.2646, 2.2958, 2.3271, 2.3583,
                                  2.3895, 2.4187, 2.4479, 2.4772, 2.5064,
                                  2.5356, 2.5610, 2.5864, 2.6117, 2.6371,
                                  2.6625, 2.6887, 2.7148, 2.7410, 2.7671};
  if (terminals < std::size(kQ)) return kQ[terminals];
  return 2.7933 + 0.02616 * (static_cast<double>(terminals) - 50.0);
}

Placer::NetBox Placer::net_box(const Placement& placement,
                               std::size_t net_index) const {
  const PhysNet& n = nets_[net_index];
  const Point2 c = center2_[placement.site_of(n.src_inst)];
  NetBox box{c.x, c.x, c.y, c.y, 0.0};
  for (InstId s : n.sink_insts) {
    const Point2 sc = center2_[placement.site_of(s)];
    box.x_min = std::min(box.x_min, sc.x);
    box.x_max = std::max(box.x_max, sc.x);
    box.y_min = std::min(box.y_min, sc.y);
    box.y_max = std::max(box.y_max, sc.y);
  }
  // Halving the doubled half-perimeter is exact, so this is bit-identical to
  // pricing the box in site_center() coordinates.
  box.cost = net_q_[net_index] *
             (static_cast<double>((box.x_max - box.x_min) +
                                  (box.y_max - box.y_min)) *
              0.5);
  return box;
}

double Placer::wirelength_cost(const Placement& placement) const {
  double total = 0.0;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    total += net_box(placement, i).cost;
  return total;
}

void Placer::seed_unplaced(Placement& placement,
                           const PlaceConstraints& constraints, Rng& rng,
                           bool near_neighbors) const {
  // Collect unplaced live instances.
  std::vector<InstId> pending;
  for (InstId id : packed_->live_insts())
    if (!placement.is_placed(id)) pending.push_back(id);
  if (pending.empty()) return;

  // Free sites by class.
  std::vector<SiteIndex> free_clb, free_iob;
  for (SiteIndex s = 0; s < static_cast<SiteIndex>(device_->num_sites()); ++s) {
    if (placement.inst_at(s).valid()) continue;
    (device_->is_clb_site(s) ? free_clb : free_iob).push_back(s);
  }
  std::shuffle(free_clb.begin(), free_clb.end(), rng);
  std::shuffle(free_iob.begin(), free_iob.end(), rng);

  // In near-neighbor mode, aim each instance at the centroid of its already
  // placed net neighbors (incremental ECOs: new logic lands next to the
  // logic it connects to).
  auto centroid_of = [&](InstId id) -> std::optional<std::pair<double, double>> {
    double cx = 0, cy = 0;
    int n = 0;
    for (std::uint32_t ni : nets_of_inst_[id.value()]) {
      const PhysNet& net = nets_[ni];
      auto consider = [&](InstId other) {
        if (other == id || !placement.is_placed(other)) return;
        const Point2 o = center2_[placement.site_of(other)];
        cx += 0.5 * o.x;
        cy += 0.5 * o.y;
        ++n;
      };
      consider(net.src_inst);
      for (InstId s : net.sink_insts) consider(s);
    }
    if (n == 0) return std::nullopt;
    return std::make_pair(cx / n, cy / n);
  };

  for (InstId id : pending) {
    auto& pool = packed_->inst(id).is_clb() ? free_clb : free_iob;
    std::size_t chosen = pool.size();
    if (near_neighbors) {
      if (auto c = centroid_of(id)) {
        double best = 1e300;
        for (std::size_t k = 0; k < pool.size(); ++k) {
          if (!constraints.site_allowed(*device_, id, pool[k])) continue;
          const Point2 s2 = center2_[pool[k]];
          const double d = std::abs(0.5 * s2.x - c->first) +
                           std::abs(0.5 * s2.y - c->second);
          if (d < best) {
            best = d;
            chosen = k;
          }
        }
      }
    }
    if (chosen == pool.size()) {
      for (std::size_t k = 0; k < pool.size(); ++k)
        if (constraints.site_allowed(*device_, id, pool[k])) {
          chosen = k;
          break;
        }
    }
    EMUTILE_CHECK(chosen < pool.size(),
                  "no free site for instance '"
                      << packed_->inst(id).name
                      << "' (region capacity exhausted)");
    placement.set(id, pool[chosen]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
  }
}

PlaceResult Placer::place(Placement& placement, const PlacerParams& params) {
  const PlaceConstraints unconstrained(packed_->inst_bound());
  return place(placement, params, unconstrained);
}

PlaceResult Placer::place(Placement& placement, const PlacerParams& params,
                          const PlaceConstraints& constraints) {
  const auto t_start = std::chrono::steady_clock::now();
  Rng rng(params.seed);
  PlaceResult result;

  // From-scratch mode restarts movable instances from random seeds.
  if (!params.incremental) {
    for (InstId id : packed_->live_insts())
      if (constraints.movable(id) && placement.is_placed(id))
        placement.clear(id);
  }
  seed_unplaced(placement, constraints, rng, params.incremental);

  // Movable instance set.
  std::vector<InstId> movable;
  for (InstId id : packed_->live_insts())
    if (constraints.movable(id)) movable.push_back(id);

  // Per-net cached boxes and total cost.
  std::vector<NetBox> boxes(nets_.size());
  double cost = 0.0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    boxes[i] = net_box(placement, i);
    cost += boxes[i].cost;
  }
  result.initial_cost = cost;

  if (movable.size() < 2 || nets_.empty()) {
    result.final_cost = cost;
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t_start)
                         .count();
    return result;
  }

  // ---- move machinery ----
  std::vector<std::uint32_t> touched;  // net indices affected by a move
  std::vector<NetBox> trial;           // touched nets' boxes after the move
  std::vector<std::uint32_t> net_mark(nets_.size(), 0);
  std::uint32_t epoch = 0;

  auto collect_nets = [&](InstId inst) {
    for (std::uint32_t n : nets_of_inst_[inst.value()]) {
      if (net_mark[n] == epoch) continue;
      net_mark[n] = epoch;
      touched.push_back(n);
    }
  };

  const int grid_max = std::max(device_->width(), device_->height());
  double window = grid_max;

  auto propose_target = [&](InstId a) -> SiteIndex {
    const SiteIndex sa = placement.site_of(a);
    if (device_->is_clb_site(sa)) {
      auto [x, y] = device_->clb_xy(sa);
      const int w = std::max(1, static_cast<int>(window));
      const int r = constraints.region_index(a);
      Rect lim{0, 0, device_->width(), device_->height()};
      if (r >= 0) {
        // Union-of-rects region: pick a rect (area-weighted).
        const auto& rects = constraints.region_rects(r);
        if (rects.size() == 1) {
          lim = rects[0];
        } else {
          int total = 0;
          for (const Rect& rc : rects) total += rc.area();
          int pick = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(total)));
          lim = rects.back();
          for (const Rect& rc : rects) {
            if (pick < rc.area()) {
              lim = rc;
              break;
            }
            pick -= rc.area();
          }
        }
      }
      int x0 = std::max(lim.x0, x - w), x1 = std::min(lim.x1 - 1, x + w);
      int y0 = std::max(lim.y0, y - w), y1 = std::min(lim.y1 - 1, y + w);
      if (x0 > x1 || y0 > y1) {
        // Window misses the chosen rect (instance sits in another rect of
        // the union): jump anywhere inside the rect.
        x0 = lim.x0;
        x1 = lim.x1 - 1;
        y0 = lim.y0;
        y1 = lim.y1 - 1;
      }
      const int tx = static_cast<int>(rng.next_in(x0, x1));
      const int ty = static_cast<int>(rng.next_in(y0, y1));
      return device_->clb_site(tx, ty);
    }
    // IOB: pick within a perimeter window.
    const int perim = device_->num_iob_sites();
    const int cur = static_cast<int>(sa) - device_->num_clb_sites();
    const int w = std::max(
        1, static_cast<int>(window * perim / static_cast<double>(grid_max)));
    const int off = static_cast<int>(rng.next_in(-w, w));
    return device_->iob_site(((cur + off) % perim + perim) % perim);
  };

  auto try_move = [&](double temperature) {
    ++result.moves_attempted;
    const InstId a = movable[rng.next_below(movable.size())];
    const SiteIndex sa = placement.site_of(a);
    const SiteIndex target = propose_target(a);
    if (target == kInvalidSite || target == sa) return;
    const InstId b = placement.inst_at(target);
    if (b.valid()) {
      if (!constraints.movable(b)) return;
      if (!constraints.site_allowed(*device_, b, sa)) return;
    }

    ++epoch;
    touched.clear();
    collect_nets(a);
    if (b.valid()) collect_nets(b);

    double old_cost = 0.0;
    for (std::uint32_t n : touched) old_cost += boxes[n].cost;

    // Apply tentatively.
    if (b.valid())
      placement.swap(a, b);
    else
      placement.move(a, target);

    double new_cost = 0.0;
    trial.clear();
    for (std::uint32_t n : touched) {
      trial.push_back(net_box(placement, n));
      new_cost += trial.back().cost;
    }

    const double delta = new_cost - old_cost;
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng.next_double() < std::exp(-delta / temperature));
    if (accept) {
      for (std::size_t k = 0; k < touched.size(); ++k)
        boxes[touched[k]] = trial[k];
      cost += delta;
      ++result.moves_accepted;
    } else {
      // Revert.
      if (b.valid())
        placement.swap(a, b);
      else
        placement.move(a, sa);
    }
  };

  // ---- initial temperature from cost-delta spread ----
  double temperature;
  {
    const std::size_t probes = std::min<std::size_t>(movable.size(), 64);
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      // Evaluate a random swap delta without keeping it: reuse try_move at
      // infinite temperature, then track via cost history.
      const double before = cost;
      try_move(1e30);
      const double d = cost - before;
      sum += d;
      sum2 += d * d;
      ++n;
    }
    const double mean = sum / static_cast<double>(std::max<std::size_t>(n, 1));
    const double var =
        sum2 / static_cast<double>(std::max<std::size_t>(n, 1)) - mean * mean;
    const double stddev = std::sqrt(std::max(0.0, var));
    temperature = params.incremental ? 0.05 * stddev + 1e-6
                                     : 20.0 * stddev + 1e-6;
  }

  const double moves_per_t_f =
      params.effort *
      std::pow(static_cast<double>(movable.size()), 4.0 / 3.0);
  const std::size_t moves_per_t =
      std::max<std::size_t>(16, static_cast<std::size_t>(moves_per_t_f));
  const double exit_temp =
      params.exit_scale * std::max(cost, 1.0) / static_cast<double>(nets_.size());

  std::size_t guard = 0;
  while (temperature > exit_temp && guard++ < 4096) {
    const std::size_t before_acc = result.moves_accepted;
    for (std::size_t m = 0; m < moves_per_t; ++m) try_move(temperature);
    const double ratio =
        static_cast<double>(result.moves_accepted - before_acc) /
        static_cast<double>(moves_per_t);

    double alpha;
    if (ratio > 0.96)
      alpha = 0.5;
    else if (ratio > 0.8)
      alpha = 0.9;
    else if (ratio > 0.15)
      alpha = 0.95;
    else
      alpha = 0.8;
    temperature *= alpha;

    window = std::clamp(window * (1.0 - 0.44 + ratio), 1.0,
                        static_cast<double>(grid_max));
  }

  // Final greedy pass at zero temperature.
  for (std::size_t m = 0; m < moves_per_t; ++m) try_move(0.0);

  result.final_cost = cost;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t_start)
                       .count();
  EMUTILE_DEBUG("placer: cost " << result.initial_cost << " -> "
                                << result.final_cost << " in "
                                << result.moves_attempted << " moves, "
                                << result.wall_ms << " ms");
  return result;
}

}  // namespace emutile
