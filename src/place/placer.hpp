#pragma once
/// \file placer.hpp
/// Simulated-annealing placer (VPR-style) with region constraints.
///
/// The cost function is half-perimeter wirelength with the classic crossing
/// correction q(t) for nets of t terminals. The schedule is adaptive: the
/// initial temperature comes from the cost-delta spread of random moves, the
/// per-temperature move budget scales as effort * N^(4/3), the cooling rate
/// adapts to the acceptance ratio, and the move-range window shrinks toward
/// an acceptance target of 0.44.
///
/// Region constraints are what the tiling engine uses: an instance may be
/// pinned (immovable) or restricted to a rectangle of CLB sites; moves that
/// would violate a constraint are never proposed. An incremental mode starts
/// from the current placement at low temperature (the "incremental
/// place-and-route" baseline of the paper's Section 6).

#include <span>
#include <vector>

#include "place/placement.hpp"
#include "synth/packer.hpp"
#include "util/rng.hpp"

namespace emutile {

/// Per-instance placement constraints (indexed by InstId).
/// A region is a union of CLB-coordinate rectangles (an affected-tile set is
/// generally not one rectangle).
class PlaceConstraints {
 public:
  PlaceConstraints() = default;
  explicit PlaceConstraints(std::size_t inst_bound)
      : movable_(inst_bound, true), region_(inst_bound, -1) {}

  void set_movable(InstId inst, bool movable) { movable_.at(inst.value()) = movable; }
  [[nodiscard]] bool movable(InstId inst) const {
    return inst.value() < movable_.size() ? movable_[inst.value()] != 0 : true;
  }

  /// Register a region (union of rects); returns its index.
  int add_region(std::vector<Rect> rects);
  /// Restrict a CLB instance to a registered region.
  void assign_region(InstId inst, int region_index);
  /// Convenience: single-rect region.
  void set_region(InstId inst, const Rect& r);

  /// -1 when unconstrained, else index into regions().
  [[nodiscard]] int region_index(InstId inst) const {
    return inst.value() < region_.size() ? region_[inst.value()] : -1;
  }
  [[nodiscard]] const std::vector<Rect>& region_rects(int index) const {
    return regions_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] bool site_allowed(const Device& device, InstId inst,
                                  SiteIndex site) const;

  void resize(std::size_t inst_bound) {
    movable_.resize(inst_bound, true);
    region_.resize(inst_bound, -1);
  }

 private:
  std::vector<std::uint8_t> movable_;
  std::vector<std::int32_t> region_;
  std::vector<std::vector<Rect>> regions_;
};

struct PlacerParams {
  std::uint64_t seed = 1;
  /// Anneal effort multiplier (VPR inner_num); 1.0 = standard quality.
  double effort = 1.0;
  /// Incremental mode: keep the existing placement as the starting point and
  /// anneal from a low temperature (refinement, not from-scratch).
  bool incremental = false;
  /// Exit temperature scale factor.
  double exit_scale = 0.005;
};

struct PlaceResult {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::size_t moves_attempted = 0;
  std::size_t moves_accepted = 0;
  double wall_ms = 0.0;
};

/// The annealer. Holds references; callers own all data structures.
class Placer {
 public:
  Placer(const Device& device, const PackedDesign& packed,
         std::span<const PhysNet> nets);

  /// Place from scratch (or refine, per params.incremental), honoring
  /// `constraints`. Unplaced movable instances are first seeded into free
  /// allowed sites. Throws CheckError if a region lacks capacity.
  PlaceResult place(Placement& placement, const PlacerParams& params,
                    const PlaceConstraints& constraints);

  /// Convenience: unconstrained placement of everything.
  PlaceResult place(Placement& placement, const PlacerParams& params);

  /// Current half-perimeter wirelength cost of a full placement.
  [[nodiscard]] double wirelength_cost(const Placement& placement) const;

 private:
  /// Bounding box in doubled site-center coordinates (every center is a
  /// multiple of 0.5, so doubling makes the box integral and exact).
  struct NetBox {
    int x_min = 0, x_max = 0, y_min = 0, y_max = 0;
    double cost = 0;
  };
  struct Point2 {
    int x = 0, y = 0;
  };

  void seed_unplaced(Placement& placement, const PlaceConstraints& constraints,
                     Rng& rng, bool near_neighbors) const;
  [[nodiscard]] NetBox net_box(const Placement& placement,
                               std::size_t net_index) const;
  [[nodiscard]] static double crossing_factor(std::size_t terminals);

  const Device* device_;
  const PackedDesign* packed_;
  std::span<const PhysNet> nets_;
  std::vector<std::vector<std::uint32_t>> nets_of_inst_;
  std::vector<Point2> center2_;  ///< per site: doubled site_center()
  std::vector<double> net_q_;    ///< per net: crossing_factor(terminals)
};

}  // namespace emutile
