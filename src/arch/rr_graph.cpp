#include "arch/rr_graph.hpp"

#include <algorithm>
#include <cmath>

namespace emutile {

const char* to_string(RrType type) {
  switch (type) {
    case RrType::kOpin: return "OPIN";
    case RrType::kIpin: return "IPIN";
    case RrType::kSink: return "SINK";
    case RrType::kChanX: return "CHANX";
    case RrType::kChanY: return "CHANY";
  }
  return "?";
}

namespace {
/// Sides cycle for CLB pin placement.
enum class Side : int { kBottom = 0, kTop = 1, kLeft = 2, kRight = 3 };
Side pin_side(int pin) { return static_cast<Side>(pin % 4); }
}  // namespace

RrGraph::RrGraph(const Device& device) : device_(&device) { build(); }

RrNodeId RrGraph::opin(SiteIndex site, int pin) const {
  const Device& d = *device_;
  EMUTILE_ASSERT(pin >= 0 && pin < num_opins(site), "opin index out of range");
  if (d.is_clb_site(site))
    return RrNodeId{clb_pin_base_ + site * kClbNodes + ClbPinModel::kNumIpins +
                    static_cast<std::uint32_t>(pin)};
  const std::uint32_t local = site - static_cast<SiteIndex>(d.num_clb_sites());
  return RrNodeId{iob_pin_base_ + local * kIobNodes + 1};
}

RrNodeId RrGraph::ipin(SiteIndex site, int pin) const {
  const Device& d = *device_;
  EMUTILE_ASSERT(pin >= 0 && pin < num_ipins(site), "ipin index out of range");
  if (d.is_clb_site(site))
    return RrNodeId{clb_pin_base_ + site * kClbNodes + static_cast<std::uint32_t>(pin)};
  const std::uint32_t local = site - static_cast<SiteIndex>(d.num_clb_sites());
  return RrNodeId{iob_pin_base_ + local * kIobNodes + 0};
}

RrNodeId RrGraph::sink(SiteIndex site) const {
  const Device& d = *device_;
  if (d.is_clb_site(site))
    return RrNodeId{clb_pin_base_ + site * kClbNodes + ClbPinModel::kNumIpins +
                    ClbPinModel::kNumOpins};
  const std::uint32_t local = site - static_cast<SiteIndex>(d.num_clb_sites());
  return RrNodeId{iob_pin_base_ + local * kIobNodes + 2};
}

RrNodeId RrGraph::chanx(int x, int y, int track) const {
  const Device& d = *device_;
  const int w = d.width(), t = d.params().tracks_per_channel;
  EMUTILE_ASSERT(x >= 0 && x < w && y >= 0 && y <= d.height() && track >= 0 &&
                     track < t,
                 "chanx coords out of range");
  return RrNodeId{chanx_base_ +
                  static_cast<std::uint32_t>((y * w + x) * t + track)};
}

RrNodeId RrGraph::chany(int x, int y, int track) const {
  const Device& d = *device_;
  const int h = d.height(), t = d.params().tracks_per_channel;
  EMUTILE_ASSERT(x >= 0 && x <= d.width() && y >= 0 && y < h && track >= 0 &&
                     track < t,
                 "chany coords out of range");
  return RrNodeId{chany_base_ +
                  static_cast<std::uint32_t>((x * h + y) * t + track)};
}

int RrGraph::num_ipins(SiteIndex site) const {
  return device_->is_clb_site(site) ? ClbPinModel::kNumIpins : 1;
}

int RrGraph::num_opins(SiteIndex site) const {
  return device_->is_clb_site(site) ? ClbPinModel::kNumOpins : 1;
}

float RrGraph::intrinsic_delay_ns(RrType type) {
  switch (type) {
    case RrType::kOpin: return 0.30f;
    case RrType::kIpin: return 0.40f;
    case RrType::kSink: return 0.00f;
    case RrType::kChanX:
    case RrType::kChanY: return 0.60f;  // wire + switch
  }
  return 0.0f;
}

float RrGraph::heuristic_to(RrNodeId from, SiteIndex to_site) const {
  const RrNodeInfo& n = node(from);
  auto [tx, ty] = device_->site_center(to_site);
  const float dx = std::abs(static_cast<float>(n.x) - static_cast<float>(tx));
  const float dy = std::abs(static_cast<float>(n.y) - static_cast<float>(ty));
  // Each unit of manhattan distance costs at least one wire segment. Keep the
  // estimate slightly optimistic (admissible) by subtracting one.
  return std::max(0.0f, dx + dy - 1.0f) * base_cost(RrType::kChanX);
}

void RrGraph::build() {
  const Device& d = *device_;
  const int w = d.width(), h = d.height(), t = d.params().tracks_per_channel;

  clb_pin_base_ = 0;
  iob_pin_base_ = clb_pin_base_ +
                  static_cast<std::uint32_t>(d.num_clb_sites()) * kClbNodes;
  chanx_base_ = iob_pin_base_ +
                static_cast<std::uint32_t>(d.num_iob_sites()) * kIobNodes;
  chany_base_ = chanx_base_ + static_cast<std::uint32_t>(w * (h + 1) * t);
  const std::uint32_t total =
      chany_base_ + static_cast<std::uint32_t>((w + 1) * h * t);

  nodes_.resize(total);

  // ---- node records ----
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const SiteIndex s = d.clb_site(x, y);
      for (int p = 0; p < ClbPinModel::kNumIpins; ++p) {
        RrNodeInfo& n = nodes_[ipin(s, p).value()];
        n = {RrType::kIpin, static_cast<std::int16_t>(x),
             static_cast<std::int16_t>(y), static_cast<std::int16_t>(p), 1, s};
      }
      for (int p = 0; p < ClbPinModel::kNumOpins; ++p) {
        RrNodeInfo& n = nodes_[opin(s, p).value()];
        n = {RrType::kOpin, static_cast<std::int16_t>(x),
             static_cast<std::int16_t>(y), static_cast<std::int16_t>(p), 1, s};
      }
      RrNodeInfo& n = nodes_[sink(s).value()];
      n = {RrType::kSink, static_cast<std::int16_t>(x),
           static_cast<std::int16_t>(y), 0,
           static_cast<std::uint16_t>(ClbPinModel::kNumIpins), s};
    }
  }
  for (int p = 0; p < d.num_iob_sites(); ++p) {
    const SiteIndex s = d.iob_site(p);
    auto [cx, cy] = d.site_center(s);
    const auto sx = static_cast<std::int16_t>(std::floor(cx));
    const auto sy = static_cast<std::int16_t>(std::floor(cy));
    nodes_[ipin(s, 0).value()] = {RrType::kIpin, sx, sy, 0, 1, s};
    nodes_[opin(s, 0).value()] = {RrType::kOpin, sx, sy, 0, 1, s};
    nodes_[sink(s).value()] = {RrType::kSink, sx, sy, 0, 1, s};
  }
  for (int y = 0; y <= h; ++y)
    for (int x = 0; x < w; ++x)
      for (int k = 0; k < t; ++k)
        nodes_[chanx(x, y, k).value()] = {RrType::kChanX,
                                          static_cast<std::int16_t>(x),
                                          static_cast<std::int16_t>(y),
                                          static_cast<std::int16_t>(k), 1,
                                          kInvalidSite};
  for (int x = 0; x <= w; ++x)
    for (int y = 0; y < h; ++y)
      for (int k = 0; k < t; ++k)
        nodes_[chany(x, y, k).value()] = {RrType::kChanY,
                                          static_cast<std::int16_t>(x),
                                          static_cast<std::int16_t>(y),
                                          static_cast<std::int16_t>(k), 1,
                                          kInvalidSite};

  // ---- edges ----
  scratch_edges_.reserve(static_cast<std::size_t>(total) * 6);

  // CLB pin <-> channel connection boxes.
  auto channel_of_clb_side = [&](int x, int y, Side side, int track) -> RrNodeId {
    switch (side) {
      case Side::kBottom: return chanx(x, y, track);
      case Side::kTop: return chanx(x, y + 1, track);
      case Side::kLeft: return chany(x, y, track);
      case Side::kRight: return chany(x + 1, y, track);
    }
    EMUTILE_ASSERT(false, "bad side");
    return RrNodeId::invalid();
  };

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const SiteIndex s = d.clb_site(x, y);
      for (int p = 0; p < ClbPinModel::kNumIpins; ++p) {
        const Side side = pin_side(p);
        for (int k = 0; k < t; ++k)
          add_edge(channel_of_clb_side(x, y, side, k), ipin(s, p));
        add_edge(ipin(s, p), sink(s));
      }
      for (int p = 0; p < ClbPinModel::kNumOpins; ++p) {
        const Side side = pin_side(p);
        for (int k = 0; k < t; ++k)
          add_edge(opin(s, p), channel_of_clb_side(x, y, side, k));
      }
    }
  }

  // IOB pins connect to the channel segment they abut.
  for (int p = 0; p < d.num_iob_sites(); ++p) {
    const SiteIndex s = d.iob_site(p);
    auto [edge, off] = d.iob_position(s);
    for (int k = 0; k < t; ++k) {
      RrNodeId wire = RrNodeId::invalid();
      switch (edge) {
        case IobEdge::kBottom: wire = chanx(off, 0, k); break;
        case IobEdge::kTop: wire = chanx(off, h, k); break;
        case IobEdge::kLeft: wire = chany(0, off, k); break;
        case IobEdge::kRight: wire = chany(w, off, k); break;
      }
      add_edge(opin(s, 0), wire);
      add_edge(wire, ipin(s, 0));
    }
    add_edge(ipin(s, 0), sink(s));
  }

  // Switch boxes at each channel corner (x, y), x in [0, w], y in [0, h].
  // Straight-through connections keep the track index; turning connections
  // additionally rotate tracks (Wilton-style) so nets can migrate between
  // tracks as they turn — a pure same-track (disjoint) box would partition
  // the fabric into W independent networks and cripple routability.
  for (int y = 0; y <= h; ++y) {
    for (int x = 0; x <= w; ++x) {
      const bool has_l = x - 1 >= 0 && x - 1 < w;
      const bool has_r = x < w;
      const bool has_b = y - 1 >= 0 && y - 1 < h;
      const bool has_t = y < h;
      for (int k = 0; k < t; ++k) {
        const int k_up = (k + 1) % t;
        const int k_dn = (k + t - 1) % t;
        // Straight.
        if (has_l && has_r) add_bidir(chanx(x - 1, y, k), chanx(x, y, k));
        if (has_b && has_t) add_bidir(chany(x, y - 1, k), chany(x, y, k));
        // Turns: same track plus both single-step rotations. The extra
        // mixing matters for ECO re-routing, where locked boundary stubs
        // must be re-entered at specific wires: more turn options per wire
        // means fewer single-entry chokepoints (real devices are far richer
        // still).
        auto turn = [&](RrNodeId a_same, RrNodeId a_up, RrNodeId a_dn,
                        RrNodeId b) {
          add_bidir(a_same, b);
          add_bidir(a_up, b);
          add_bidir(a_dn, b);
        };
        if (has_l && has_b)
          turn(chanx(x - 1, y, k), chanx(x - 1, y, k_up),
               chanx(x - 1, y, k_dn), chany(x, y - 1, k));
        if (has_l && has_t)
          turn(chanx(x - 1, y, k), chanx(x - 1, y, k_up),
               chanx(x - 1, y, k_dn), chany(x, y, k));
        if (has_r && has_b)
          turn(chanx(x, y, k), chanx(x, y, k_up), chanx(x, y, k_dn),
               chany(x, y - 1, k));
        if (has_r && has_t)
          turn(chanx(x, y, k), chanx(x, y, k_up), chanx(x, y, k_dn),
               chany(x, y, k));
      }
    }
  }

  // Compress to CSR.
  std::sort(scratch_edges_.begin(), scratch_edges_.end());
  scratch_edges_.erase(
      std::unique(scratch_edges_.begin(), scratch_edges_.end()),
      scratch_edges_.end());
  edge_offsets_.assign(total + 1, 0);
  for (const auto& e : scratch_edges_) ++edge_offsets_[e.first + 1];
  for (std::size_t i = 1; i < edge_offsets_.size(); ++i)
    edge_offsets_[i] += edge_offsets_[i - 1];
  edge_targets_.resize(scratch_edges_.size());
  {
    std::vector<std::uint32_t> cursor(edge_offsets_.begin(),
                                      edge_offsets_.end() - 1);
    for (const auto& e : scratch_edges_)
      edge_targets_[cursor[e.first]++] = RrNodeId{e.second};
  }
  scratch_edges_.clear();
  scratch_edges_.shrink_to_fit();
}

void RrGraph::add_edge(RrNodeId from, RrNodeId to) {
  scratch_edges_.emplace_back(from.value(), to.value());
}

void RrGraph::add_bidir(RrNodeId a, RrNodeId b) {
  add_edge(a, b);
  add_edge(b, a);
}

}  // namespace emutile
