#include "route/router.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"
#include "util/log.hpp"

namespace emutile {

Router::Router(const RrGraph& rr) : rr_(&rr) {
  const std::size_t n = rr.num_nodes();
  search_.assign(n, SearchSlot{});
  marks_.assign(n, MarkSlot{});
  hist_cost_.assign(n, 0.0f);
  locked_occ_.assign(n, 0);
  site_epoch_.assign(static_cast<std::size_t>(rr.device().num_sites()), 0);
}

float Router::node_cost(RrNodeId node, const Routing& routing,
                        float pres_fac) const {
  const RrNodeInfo& info = rr_->node(node);
  const int over_if_added =
      routing.occupancy(node) + 1 - static_cast<int>(info.capacity);
  const float congestion =
      over_if_added > 0 ? 1.0f + pres_fac * static_cast<float>(over_if_added)
                        : 1.0f;
  return (RrGraph::base_cost(info.type) + hist_cost_[node.value()]) *
             congestion +
         0.01f;  // keeps zero-base-cost nodes from being free
}

void Router::restore_kept(TaskState& state, Routing& routing) {
  routing.rip_up(state.task.net);
  // Re-install the kept forest so its occupancy is visible to other nets.
  if (!state.task.kept.empty()) {
    RouteTree forest;
    forest.nodes = state.task.kept.nodes;
    forest.parent = state.task.kept.parent;
    routing.set_tree(state.task.net, std::move(forest));
  }
  state.routed = false;
  state.tree.clear();
  state.pending.clear();
}

RouteResult Router::route(std::vector<NetTask> tasks, Routing& routing,
                          const RouterParams& params) {
  const auto t_start = std::chrono::steady_clock::now();
  RouteResult result;

  std::vector<TaskState> states;
  states.reserve(tasks.size());
  for (NetTask& task : tasks) {
    TaskState st;
    st.task = std::move(task);
    states.push_back(std::move(st));
  }
  // Install kept forests so locked boundary wiring is occupied from the start.
  for (TaskState& st : states) restore_kept(st, routing);

  // Anything occupied now (kept forests + untouched nets) is immovable; a
  // node already at capacity is a hard obstacle for every net but its owner.
  for (std::size_t i = 0; i < locked_occ_.size(); ++i)
    locked_occ_[i] = routing.occupancy(RrNodeId{static_cast<std::uint32_t>(i)});

  // Large-fanout nets first: they need the most routing freedom.
  std::sort(states.begin(), states.end(),
            [](const TaskState& a, const TaskState& b) {
              return a.task.sinks.size() > b.task.sinks.size();
            });

  std::vector<std::uint8_t> dirty(states.size(), 1);
  float pres_fac = params.pres_fac_first;
  std::size_t best_overused = static_cast<std::size_t>(-1);
  int stagnant_iters = 0;

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool all_ok = true;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (!dirty[i]) continue;
      dirty[i] = 0;
      if (!route_net(states[i], routing, params, pres_fac, iter, result)) {
        all_ok = false;
        EMUTILE_DEBUG("router: net " << states[i].task.net
                                     << " unroutable at iteration " << iter);
      }
    }
    if (!all_ok) break;  // leaves result.success == false

    // Congestion check over the nodes our tasks use.
    std::unordered_set<std::uint32_t> overused;
    for (const TaskState& st : states) {
      if (!routing.has_tree(st.task.net)) continue;
      for (RrNodeId n : routing.tree(st.task.net).nodes)
        if (routing.overuse(n) > 0) overused.insert(n.value());
    }

    if (overused.empty()) {
      result.success = true;
      result.nets_routed = states.size();
      break;
    }
    if (log_threshold() <= LogLevel::kDebug) {
      std::ostringstream ids;
      int shown = 0;
      for (std::uint32_t n : overused) {
        if (++shown > 4) break;
        ids << ' ' << to_string(rr_->node(RrNodeId{n}).type) << '('
            << rr_->node(RrNodeId{n}).x << ',' << rr_->node(RrNodeId{n}).y
            << ")t" << rr_->node(RrNodeId{n}).pin_or_track;
      }
      EMUTILE_DEBUG("router iter " << iter << ": " << overused.size()
                                   << " overused, pres " << pres_fac << ':'
                                   << ids.str());
    }
    // Fail fast when congestion has stopped improving: the channel width is
    // insufficient and the caller will widen it (or grow the region).
    if (overused.size() < best_overused) {
      best_overused = overused.size();
      stagnant_iters = 0;
    } else if (++stagnant_iters >= params.stagnation_limit) {
      EMUTILE_DEBUG("router: congestion stagnant at " << overused.size()
                                                      << " nodes; giving up");
      break;
    }

    for (std::uint32_t n : overused)
      hist_cost_[n] +=
          params.hist_fac * static_cast<float>(routing.overuse(RrNodeId{n}));
    pres_fac = iter == 0
                   ? params.pres_fac_init
                   : std::min(params.pres_fac_max,
                              pres_fac * params.pres_fac_mult);

    // First-claim-keeps rip: on each overused node, the earliest nets (in
    // routing order) keep their use up to capacity; only the excess users
    // are ripped. Ripping every conflicting net symmetrically lets two nets
    // oscillate over the same resource forever. When first-claim itself
    // stagnates (the loser has no alternative while the winner sits on the
    // contested wire), periodically fall back to the symmetric policy so
    // the winner also moves and frees the chokepoint.
    const bool symmetric_round =
        stagnant_iters > 0 && stagnant_iters % 3 == 0;
    std::unordered_map<std::uint32_t, int> claims;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (!routing.has_tree(states[i].task.net)) continue;
      const RouteTree& tree = routing.tree(states[i].task.net);
      bool can_keep = true;
      for (RrNodeId n : tree.nodes) {
        if (!overused.count(n.value())) continue;
        if (symmetric_round) {
          can_keep = false;
          break;
        }
        const int cap = rr_->node(n).capacity;
        auto it = claims.find(n.value());
        if (it != claims.end() && it->second >= cap) {
          can_keep = false;
          break;
        }
      }
      if (can_keep) {
        for (RrNodeId n : tree.nodes)
          if (overused.count(n.value())) ++claims[n.value()];
      } else {
        restore_kept(states[i], routing);
        dirty[i] = 1;
      }
    }
  }

  // On failure, put every task back to its kept-forest state so the caller
  // can retry with a larger region without losing locked boundary wiring.
  if (!result.success) {
    if (log_threshold() <= LogLevel::kDebug) {
      EMUTILE_DEBUG("occupancy audit: " << routing.audit_occupancy()
                                        << " mismatching nodes");
      for (const TaskState& st : states) {
        if (!routing.has_tree(st.task.net)) continue;
        for (RrNodeId n : routing.tree(st.task.net).nodes)
          if (routing.overuse(n) > 0) {
            int copies = 0;
            for (RrNodeId m : routing.tree(st.task.net).nodes)
              if (m == n) ++copies;
            EMUTILE_DEBUG("overused at give-up: "
                          << to_string(rr_->node(n).type) << " ("
                          << rr_->node(n).x << ',' << rr_->node(n).y
                          << ") track/pin " << rr_->node(n).pin_or_track
                          << " occ " << routing.occupancy(n) << " net "
                          << st.task.net << " copies-in-tree " << copies
                          << " src-node " << st.task.source << " locked "
                          << locked_occ_[n.value()] << " kept-size "
                          << st.task.kept.nodes.size() << " sinks "
                          << st.task.sinks.size());
          }
      }
    }
    for (TaskState& st : states) restore_kept(st, routing);
  }

  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t_start)
                       .count();
  return result;
}

bool Router::route_net(TaskState& state, Routing& routing,
                       const RouterParams& params, float pres_fac,
                       int extra_margin, RouteResult& result) {
  const NetTask& task = state.task;
  const RouteForest& kept = task.kept;

  // Release this net's own occupancy while it is being rebuilt.
  routing.rip_up(task.net);

  // ---- marks: 0 = in tree (connected), g > 0 = orphan group g ----
  ++mark_tag_;
  const std::uint32_t mark_tag = mark_tag_;
  auto mark = [&](RrNodeId n, std::int32_t value) {
    marks_[n.value()].tag = mark_tag;
    marks_[n.value()].value = value;
  };
  auto mark_of = [&](RrNodeId n) -> std::int32_t {
    const MarkSlot& m = marks_[n.value()];
    return m.tag == mark_tag ? m.value : -1;
  };

  // Each tree node records its index in state.tree.nodes (parent wiring).
  auto append_tree_node = [&](RrNodeId n, std::int32_t parent_idx) {
    state.tree.nodes.push_back(n);
    state.tree.parent.push_back(parent_idx);
    marks_[n.value()].tree_pos =
        static_cast<std::int32_t>(state.tree.nodes.size()) - 1;
    mark(n, 0);
  };
  auto tree_index = [&](std::uint32_t n) {
    EMUTILE_ASSERT(mark_of(RrNodeId{n}) == 0, "node is not in the tree");
    return marks_[n].tree_pos;
  };

  // ---- initial tree: kept source-connected component, or bare source ----
  state.tree.clear();
  std::vector<std::vector<std::int32_t>> group_members(
      static_cast<std::size_t>(kept.num_orphan_groups) + 1);
  for (std::size_t i = 0; i < kept.nodes.size(); ++i)
    group_members[static_cast<std::size_t>(kept.group[i])].push_back(
        static_cast<std::int32_t>(i));

  if (!group_members[0].empty()) {
    for (std::int32_t ki : group_members[0]) {
      const auto k = static_cast<std::size_t>(ki);
      const std::int32_t kp = kept.parent[k];
      std::int32_t parent_idx = -1;
      if (kp >= 0) {
        const RrNodeId kparent = kept.nodes[static_cast<std::size_t>(kp)];
        EMUTILE_ASSERT(mark_of(kparent) == 0, "kept forest order violated");
        parent_idx = marks_[kparent.value()].tree_pos;
      }
      append_tree_node(kept.nodes[k], parent_idx);
    }
    EMUTILE_ASSERT(state.tree.nodes[0] == task.source,
                   "kept tree root is not the net source");
  } else {
    append_tree_node(task.source, -1);
  }

  // Orphan entry is only valid where the attachment edge direction works
  // out: wire nodes always (wire-wire switches are bidirectional); an IPIN
  // only when its group has no wires at all (pin-only stub entered through
  // the wire->IPIN connection box); SINKs never.
  std::vector<std::uint8_t> group_has_wire(
      static_cast<std::size_t>(kept.num_orphan_groups) + 1, 0);
  for (int g = 1; g <= kept.num_orphan_groups; ++g)
    for (std::int32_t ki : group_members[static_cast<std::size_t>(g)]) {
      const RrNodeId n = kept.nodes[static_cast<std::size_t>(ki)];
      mark(n, g);
      const RrType ty = rr_->node(n).type;
      if (ty == RrType::kChanX || ty == RrType::kChanY)
        group_has_wire[static_cast<std::size_t>(g)] = 1;
    }
  auto orphan_enterable = [&](RrNodeId n, int g) {
    const RrType ty = rr_->node(n).type;
    if (ty == RrType::kChanX || ty == RrType::kChanY) return true;
    return ty == RrType::kIpin &&
           !group_has_wire[static_cast<std::size_t>(g)];
  };

  // ---- pending targets ----
  state.pending.clear();
  for (RrNodeId sink : task.sinks) {
    if (mark_of(sink) >= 0) continue;  // already carried by the kept forest
    Target t;
    t.is_orphan = false;
    t.sink = sink;
    t.x = static_cast<float>(rr_->node(sink).x) + 0.5f;
    t.y = static_cast<float>(rr_->node(sink).y) + 0.5f;
    state.pending.push_back(t);
  }
  std::vector<std::uint8_t> group_pending(
      static_cast<std::size_t>(kept.num_orphan_groups) + 1, 0);
  for (int g = 1; g <= kept.num_orphan_groups; ++g) {
    if (group_members[static_cast<std::size_t>(g)].empty()) continue;
    Target t;
    t.is_orphan = true;
    t.orphan_group = g;
    const RrNodeId anchor = kept.nodes[static_cast<std::size_t>(
        group_members[static_cast<std::size_t>(g)].front())];
    t.x = static_cast<float>(rr_->node(anchor).x);
    t.y = static_cast<float>(rr_->node(anchor).y);
    state.pending.push_back(t);
    group_pending[static_cast<std::size_t>(g)] = 1;
  }

  if (state.pending.empty()) {
    routing.set_tree(task.net, state.tree);
    state.routed = true;
    return true;
  }

  // ---- search bounding box over all terminals and kept wiring ----
  float bx0 = rr_->node(task.source).x, bx1 = bx0;
  float by0 = rr_->node(task.source).y, by1 = by0;
  auto grow_box = [&](float x, float y) {
    bx0 = std::min(bx0, x);
    bx1 = std::max(bx1, x);
    by0 = std::min(by0, y);
    by1 = std::max(by1, y);
  };
  for (const Target& t : state.pending) grow_box(t.x, t.y);
  for (const RrNodeId n : kept.nodes)
    grow_box(static_cast<float>(rr_->node(n).x),
             static_cast<float>(rr_->node(n).y));
  // The search box grows with every failed congestion iteration so nets can
  // take progressively longer detours (VPR-style bounding-box relaxation).
  const float margin = static_cast<float>(params.bbox_margin) +
                       2.0f * static_cast<float>(std::min(extra_margin, 8));
  bx0 -= margin;
  bx1 += margin;
  by0 -= margin;
  by1 += margin;

  // Sites with a pending SINK: the only sites whose IPIN/SINK nodes the
  // search may enter.
  auto refresh_sites = [&] {
    ++site_tag_;
    for (const Target& t : state.pending)
      if (!t.is_orphan) site_epoch_[rr_->node(t.sink).site] = site_tag_;
  };
  refresh_sites();

  auto heuristic = [&](RrNodeId n) {
    // With many pending targets the min-distance scan dominates runtime;
    // fall back to Dijkstra (h = 0), which the bounding box keeps cheap.
    if (state.pending.size() > 8) return 0.0f;
    const RrNodeInfo& info = rr_->node(n);
    float best = 1e30f;
    for (const Target& t : state.pending) {
      const float d = std::abs(static_cast<float>(info.x) - t.x) +
                      std::abs(static_cast<float>(info.y) - t.y);
      best = std::min(best, d);
    }
    return params.astar_fac * best;
  };

  // ---- connect every pending target, nearest-first by search order ----
  while (!state.pending.empty()) {
    ++epoch_;
    const std::uint32_t visit_tag = epoch_;
    heap_.clear();

    auto relax = [&](RrNodeId n, float cost, std::uint32_t prev) {
      SearchSlot& slot = search_[n.value()];
      if (slot.visit == visit_tag) return;  // settled
      if (slot.tent == visit_tag && slot.cost <= cost)
        return;  // no improvement
      slot.tent = visit_tag;
      slot.cost = cost;
      slot.prev = prev;
      heap_.push_back(HeapEntry{cost + heuristic(n), cost, n.value()});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    };

    for (RrNodeId n : state.tree.nodes) relax(n, 0.0f, n.value());

    bool reached = false;
    RrNodeId reached_node;
    std::int32_t reached_kind = -1;  // 0 sink; > 0 orphan group
    std::size_t settled = 0;

    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const HeapEntry top = heap_.back();
      heap_.pop_back();
      const RrNodeId node{top.node};
      if (search_[top.node].visit == visit_tag) continue;
      search_[top.node].visit = visit_tag;
      ++result.nodes_expanded;
      ++settled;

      const std::int32_t m = mark_of(node);
      if (m > 0 && group_pending[static_cast<std::size_t>(m)]) {
        reached = true;
        reached_node = node;
        reached_kind = m;
        break;
      }
      // SINKs that are not already part of the tree terminate the search;
      // expansion gating guarantees they belong to a pending target site.
      if (m != 0 && rr_->node(node).type == RrType::kSink) {
        reached = true;
        reached_node = node;
        reached_kind = 0;
        break;
      }

      for (RrNodeId nb : rr_->fanout(node)) {
        if (search_[nb.value()].visit == visit_tag) continue;
        const std::int32_t nb_mark = mark_of(nb);
        if (nb_mark == 0) continue;  // already in the growing tree
        if (nb_mark > 0 && !orphan_enterable(nb, nb_mark)) continue;
        const RrNodeInfo& info = rr_->node(nb);
        if (nb_mark < 0) {
          // Regular node: confinement, obstacles, box, pin gating.
          if (params.allowed_mask && !(*params.allowed_mask)[nb.value()])
            continue;
          if (locked_occ_[nb.value()] >=
              static_cast<std::int32_t>(info.capacity))
            continue;  // hard obstacle (locked net / kept interface)
          const auto nx = static_cast<float>(info.x);
          const auto ny = static_cast<float>(info.y);
          if (nx < bx0 || nx > bx1 || ny < by0 || ny > by1) continue;
          if ((info.type == RrType::kIpin || info.type == RrType::kSink) &&
              site_epoch_[info.site] != site_tag_)
            continue;
          if (info.type == RrType::kOpin) continue;  // never route through
        }
        // Orphan nodes (nb_mark > 0) are always enterable: reattachment at
        // the locked boundary crossing.
        relax(nb, top.cost + node_cost(nb, routing, pres_fac), top.node);
      }
    }

    if (!reached) {
      EMUTILE_DEBUG("route_net " << task.net << ": no path to "
                                 << state.pending.size()
                                 << " remaining target(s); first is "
                                 << (state.pending[0].is_orphan ? "orphan"
                                                                : "sink")
                                 << " at (" << state.pending[0].x << ','
                                 << state.pending[0].y << "); tree "
                                 << state.tree.nodes.size() << " nodes, box ["
                                 << bx0 << ',' << bx1 << "]x[" << by0 << ','
                                 << by1 << "], src ("
                                 << rr_->node(task.source).x << ','
                                 << rr_->node(task.source).y << ") kept "
                                 << kept.nodes.size() << " in "
                                 << kept.num_orphan_groups << " orphans, "
                                 << settled << " settled");
      if (log_threshold() <= LogLevel::kDebug) {
        float mx = -99, my = -99, mnx = 99, mny = 99;
        for (std::size_t v = 0; v < search_.size(); ++v) {
          if (search_[v].visit != visit_tag) continue;
          const RrNodeInfo& inf = rr_->node(RrNodeId{static_cast<std::uint32_t>(v)});
          if (inf.type != RrType::kChanX && inf.type != RrType::kChanY) continue;
          mx = std::max(mx, static_cast<float>(inf.x));
          my = std::max(my, static_cast<float>(inf.y));
          mnx = std::min(mnx, static_cast<float>(inf.x));
          mny = std::min(mny, static_cast<float>(inf.y));
        }
        EMUTILE_DEBUG("  settled wire extent x[" << mnx << ',' << mx << "] y["
                                                 << mny << ',' << my << ']');
      }
      return false;
    }

    // ---- backtrace: reached_node .. seed (seed has prev == self) ----
    std::vector<RrNodeId> path;
    {
      std::uint32_t cur = reached_node.value();
      while (search_[cur].prev != cur) {
        path.push_back(RrNodeId{cur});
        cur = search_[cur].prev;
      }
      path.push_back(RrNodeId{cur});
      std::reverse(path.begin(), path.end());
    }

    // Append the path; path[0] is the seed, already in the tree.
    std::int32_t parent_idx = tree_index(path[0].value());
    for (std::size_t i = 1; i < path.size(); ++i) {
      EMUTILE_ASSERT(mark_of(path[i]) != 0, "path re-enters tree");
      append_tree_node(path[i], parent_idx);
      parent_idx = static_cast<std::int32_t>(state.tree.nodes.size()) - 1;
    }

    if (reached_kind > 0) {
      // Merge the orphan group: re-root its subtree at reached_node. Edge
      // orientation matters — wire-wire switches work both ways, but
      // wire->IPIN and IPIN->SINK only forward — so the BFS may traverse a
      // kept edge forward always, and backward only between two wires.
      const int g = reached_kind;
      const auto& members = group_members[static_cast<std::size_t>(g)];
      auto is_channel = [&](std::uint32_t v) {
        const RrType ty = rr_->node(RrNodeId{v}).type;
        return ty == RrType::kChanX || ty == RrType::kChanY;
      };
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adj;
      for (std::int32_t ki : members) {
        const auto k = static_cast<std::size_t>(ki);
        const std::int32_t kp = kept.parent[k];
        if (kp < 0) continue;
        const std::uint32_t child = kept.nodes[k].value();
        const std::uint32_t parent =
            kept.nodes[static_cast<std::size_t>(kp)].value();
        adj[parent].push_back(child);  // forward: always valid
        if (is_channel(parent) && is_channel(child))
          adj[child].push_back(parent);  // reverse: wires only
      }
      std::vector<std::uint32_t> queue{reached_node.value()};
      std::unordered_set<std::uint32_t> visited{reached_node.value()};
      std::size_t head = 0;
      while (head < queue.size()) {
        const std::uint32_t cur = queue[head++];
        for (std::uint32_t nb : adj[cur]) {
          if (!visited.insert(nb).second) continue;
          append_tree_node(RrNodeId{nb}, tree_index(cur));
          queue.push_back(nb);
        }
      }
      EMUTILE_ASSERT(visited.size() == members.size(),
                     "orphan re-rooting left nodes unreachable");
      group_pending[static_cast<std::size_t>(g)] = 0;
      std::erase_if(state.pending, [&](const Target& t) {
        return t.is_orphan && t.orphan_group == g;
      });
    } else {
      std::erase_if(state.pending, [&](const Target& t) {
        return !t.is_orphan && t.sink == reached_node;
      });
      refresh_sites();
    }
  }

  // Structural guard: exactly one OPIN (the root) per tree.
  for (std::size_t i = 1; i < state.tree.nodes.size(); ++i)
    EMUTILE_ASSERT(rr_->node(state.tree.nodes[i]).type != RrType::kOpin,
                   "net " << task.net << ": non-root OPIN in route tree");

  routing.set_tree(task.net, state.tree);
  state.routed = true;
  return true;
}

std::vector<NetTask> make_route_tasks(const RrGraph& rr,
                                      const Placement& placement,
                                      std::span<const PhysNet> nets) {
  std::vector<NetTask> tasks;
  tasks.reserve(nets.size());
  for (const PhysNet& n : nets) {
    NetTask t;
    t.net = n.net;
    t.source = rr.opin(placement.site_of(n.src_inst), n.src_opin);
    for (InstId s : n.sink_insts)
      t.sinks.push_back(rr.sink(placement.site_of(s)));
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace emutile
