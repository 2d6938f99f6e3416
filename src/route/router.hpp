#pragma once
/// \file router.hpp
/// PathFinder negotiated-congestion router with A* directed search.
///
/// The router operates on NetTasks. A task names the net's source OPIN, the
/// SINK nodes still requiring connection, and (optionally) a kept forest
/// from a partial rip-up: the source-connected component is the starting
/// tree and each orphan subtree is a mandatory re-attachment target — this
/// is how re-routing confined to an unlocked tile preserves the locked
/// boundary crossings of nets that traverse the tile.
///
/// Confinement: params.allowed_mask restricts expansion to a node subset
/// (the unlocked region); nodes occupied to capacity by nets outside the
/// route set are hard obstacles. Congestion between nets of the route set
/// is negotiated PathFinder-style with growing present-sharing penalties
/// and first-order history costs.

#include <span>
#include <vector>

#include "place/placement.hpp"
#include "route/routing.hpp"
#include "synth/packer.hpp"

namespace emutile {

/// One net's routing work item.
struct NetTask {
  NetId net;
  RrNodeId source;               ///< source OPIN (root of the final tree)
  std::vector<RrNodeId> sinks;   ///< SINK nodes still needing connection
  RouteForest kept;              ///< surviving forest (may be empty)
};

struct RouterParams {
  int max_iterations = 45;
  int stagnation_limit = 15;      ///< give up after this many non-improving iters
  float pres_fac_first = 0.0f;   ///< first iteration explores congestion-free
  float pres_fac_init = 0.6f;
  float pres_fac_mult = 1.7f;
  float pres_fac_max = 256.0f;   ///< cap keeps the cost landscape sane
  float hist_fac = 0.5f;
  float astar_fac = 1.2f;        ///< >1 trades optimality for speed
  int bbox_margin = 3;           ///< search box slack around net terminals
  /// Optional confinement mask (size = rr.num_nodes(); nonzero = usable).
  const std::vector<std::uint8_t>* allowed_mask = nullptr;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  std::size_t nets_routed = 0;
  std::size_t nodes_expanded = 0;
  double wall_ms = 0.0;
};

/// Stateless apart from scratch buffers; one instance per RR graph.
class Router {
 public:
  explicit Router(const RrGraph& rr);

  /// (Re)route every task. Tasks' nets must already be ripped in `routing`
  /// (fully, or partially with the forest passed in the task). All other
  /// nets' routing is treated as immovable obstacles.
  RouteResult route(std::vector<NetTask> tasks, Routing& routing,
                    const RouterParams& params);

 private:
  struct Target {
    bool is_orphan = false;
    int orphan_group = 0;     // valid when is_orphan
    RrNodeId sink;            // valid when !is_orphan
    float x = 0, y = 0;       // heuristic anchor
  };

  struct TaskState {
    NetTask task;
    RouteTree tree;                 // grows as targets connect
    std::vector<Target> pending;
    bool routed = false;
  };

  /// Per-node A* state, packed so one relaxation touches one cache line.
  struct SearchSlot {
    float cost = 0.0f;        // tentative path cost
    std::uint32_t tent = 0;   // tentative-cost validity tag
    std::uint32_t visit = 0;  // settled tag
    std::uint32_t prev = 0;   // backtrace predecessor
  };

  /// Per-node membership of the net being routed, valid while `tag` equals
  /// the net's mark tag.
  struct MarkSlot {
    std::uint32_t tag = 0;
    std::int32_t value = -1;     // 0 = in the tree, g > 0 = orphan group g
    std::int32_t tree_pos = -1;  // index in the tree (value 0 only)
  };

  /// A* frontier entry, ordered by estimated total cost (min-heap through
  /// std::greater).
  struct HeapEntry {
    float est;
    float cost;
    std::uint32_t node;
    friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
      return a.est > b.est;
    }
  };

  /// Route one net completely (all pending targets). Returns false if some
  /// target is unreachable under the current constraints.
  bool route_net(TaskState& state, Routing& routing,
                 const RouterParams& params, float pres_fac,
                 int extra_margin, RouteResult& result);

  /// Reset a task to its kept-forest state (used on rip-and-retry).
  void restore_kept(TaskState& state, Routing& routing);

  [[nodiscard]] float node_cost(RrNodeId node, const Routing& routing,
                                float pres_fac) const;

  const RrGraph* rr_;

  // Scratch, epoch-marked (sized to rr nodes).
  std::vector<SearchSlot> search_;
  std::vector<MarkSlot> marks_;
  std::vector<float> hist_cost_;
  std::vector<std::int32_t> locked_occ_;    // obstacle snapshot
  std::vector<std::uint32_t> site_epoch_;   // per site: pending-sink tag
  std::vector<HeapEntry> heap_;             // A* frontier (binary heap)
  std::uint32_t epoch_ = 0;                 // per-search visit tag
  std::uint32_t mark_tag_ = 0;              // per-net mark tag
  std::uint32_t site_tag_ = 0;              // per-refresh pending-site tag
};

/// Build from-scratch route tasks for all physical nets (full routing).
[[nodiscard]] std::vector<NetTask> make_route_tasks(
    const RrGraph& rr, const Placement& placement,
    std::span<const PhysNet> nets);

}  // namespace emutile
