#include "graph/overlay.hpp"

#include <utility>

#include "graph/builder.hpp"

namespace sfs::graph {

Overlay::Overlay(Graph base) : graph_(std::move(base)) {
  alive_.assign(graph_.num_vertices(), 1u);
  edge_alive_.assign(graph_.num_edges(), 1u);
  num_alive_ = graph_.num_vertices();
  // Everything starts alive, so live_degree(v) is just the incidence size
  // (self-loops occupy two slots, matching live_degree's count).
  live_mass_.resize(graph_.num_vertices());
  for (std::size_t vi = 0; vi < graph_.num_vertices(); ++vi) {
    const auto v = static_cast<VertexId>(vi);
    live_mass_.set_weight(vi, graph_.incident(v).size() + 1);
  }
}

std::uint64_t Overlay::join_mass(VertexId v) const {
  SFS_REQUIRE(v < alive_.size(), "Overlay::join_mass: vertex id out of range");
  return live_mass_.weight(v);
}

std::size_t Overlay::live_degree(VertexId v) const {
  SFS_REQUIRE(v < alive_.size(),
              "Overlay::live_degree: vertex id out of range");
  if (alive_[v] == 0) return 0;
  std::size_t deg = 0;
  if (v < graph_.num_vertices()) {
    const auto inc = graph_.incident(v);
    const auto adj = graph_.adjacent(v);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      if (edge_alive_[inc[i]] != 0 && alive_[adj[i]] != 0) ++deg;
    }
  }
  for (const Edge& e : staged_edges_) {
    if (e.tail == v && alive_[e.head] != 0) ++deg;
    if (e.head == v && alive_[e.tail] != 0) ++deg;
  }
  return deg;
}

VertexId Overlay::join(std::size_t attach, rng::Rng& rng) {
  SFS_REQUIRE(attach >= 1, "Overlay::join: need at least one attachment");
  SFS_REQUIRE(num_alive_ >= 1,
              "Overlay::join: cannot join an overlay with no live peers");
  SFS_REQUIRE(alive_.size() < static_cast<std::size_t>(kNoVertex),
              "Overlay::join: vertex id space exhausted");

  const auto v = static_cast<VertexId>(alive_.size());
  // Draw the targets first, then add the new vertex's own mass: a peer
  // cannot attach to itself on arrival.
  targets_.clear();
  SFS_CHECK(live_mass_.total_weight() > 0,
            "live mass empty despite live peers");
  for (std::size_t i = 0; i < attach; ++i) {
    targets_.push_back(static_cast<VertexId>(live_mass_.sample(rng)));
  }
  alive_.push_back(1u);
  ++num_alive_;
  ++staged_vertices_;
  // Newcomer: the +1 baseline plus one unit per staged edge (every target
  // is live by construction); each target gains one unit.
  const std::size_t id = live_mass_.push_back(attach + 1);
  SFS_CHECK(id == v, "live mass ids out of sync with vertex ids");
  for (const VertexId t : targets_) {
    staged_edges_.push_back(Edge{v, t});
    live_mass_.add(t, 1);
  }
  ++epoch_;
  return v;
}

void Overlay::retire_live_mass(VertexId v) {
  // Mass granted to neighbors through `v`: one unit per live incidence
  // pair, committed or staged. Self-loop slots grant mass to `v` itself,
  // which the final set_weight(v, 0) retires wholesale.
  if (v < graph_.num_vertices()) {
    const auto inc = graph_.incident(v);
    const auto adj = graph_.adjacent(v);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      const VertexId w = adj[i];
      if (edge_alive_[inc[i]] != 0 && alive_[w] != 0 && w != v) {
        live_mass_.add(w, -1);
      }
    }
  }
  for (const Edge& e : staged_edges_) {
    if (alive_[e.tail] == 0 || alive_[e.head] == 0) continue;
    if (e.tail == v && e.head != v) live_mass_.add(e.head, -1);
    if (e.head == v && e.tail != v) live_mass_.add(e.tail, -1);
  }
  live_mass_.set_weight(v, 0);
}

void Overlay::depart(VertexId v) {
  SFS_REQUIRE(v < alive_.size(), "Overlay::depart: vertex id out of range");
  SFS_REQUIRE(alive_[v] != 0, "Overlay::depart: vertex already departed");
  // Its live snapshot incidence becomes dead weight the next compaction
  // reclaims (count before flipping the bit — live_degree of a dead vertex
  // is 0 by definition).
  std::size_t snapshot_live = 0;
  if (v < graph_.num_vertices()) {
    const auto inc = graph_.incident(v);
    const auto adj = graph_.adjacent(v);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      if (edge_alive_[inc[i]] != 0 && alive_[adj[i]] != 0) ++snapshot_live;
    }
  }
  retire_live_mass(v);
  alive_[v] = 0;
  --num_alive_;
  compaction_debt_ += snapshot_live;
  ++epoch_;
}

void Overlay::fail_edge(EdgeId e) {
  SFS_REQUIRE(e < edge_alive_.size(),
              "Overlay::fail_edge: edge id out of range");
  SFS_REQUIRE(edge_alive_[e] != 0, "Overlay::fail_edge: edge already failed");
  edge_alive_[e] = 0;
  // The edge contributed live mass only while both endpoints were alive (a
  // self-loop grants its vertex two units via its two slots).
  const Edge& ed = graph_.edge(e);
  if (alive_[ed.tail] != 0 && alive_[ed.head] != 0) {
    live_mass_.add(ed.tail, -1);
    live_mass_.add(ed.head, -1);
  }
  ++compaction_debt_;
  ++epoch_;
}

void Overlay::compact() {
  GraphBuilder& builder = builder_;
  builder.reset(alive_.size());
  builder.reserve_edges(graph_.num_edges() + staged_edges_.size());
  for (std::size_t ei = 0; ei < graph_.num_edges(); ++ei) {
    const auto e = static_cast<EdgeId>(ei);
    if (edge_alive_[e] == 0) continue;
    const Edge& ed = graph_.edge(e);
    if (alive_[ed.tail] == 0 || alive_[ed.head] == 0) continue;
    builder.add_edge(ed.tail, ed.head);
  }
  for (const Edge& ed : staged_edges_) {
    if (alive_[ed.tail] != 0 && alive_[ed.head] != 0) {
      builder.add_edge(ed.tail, ed.head);
    }
  }
  builder.build_into(graph_);
  staged_edges_.clear();
  staged_vertices_ = 0;
  edge_alive_.assign(graph_.num_edges(), 1u);
  compaction_debt_ = 0;
  // Compaction preserves every live degree (it commits exactly the live
  // topology), so the live mass is already correct.
  ++compactions_;
  ++epoch_;
}

bool Overlay::maybe_compact(double debt_threshold) {
  SFS_REQUIRE(debt_threshold >= 0.0,
              "Overlay::maybe_compact: threshold must be non-negative");
  const bool staleness =
      graph_.num_edges() > 0 &&
      static_cast<double>(compaction_debt_) >
          debt_threshold * static_cast<double>(graph_.num_edges());
  if (staged_vertices_ == 0 && !staleness) return false;
  compact();
  return true;
}

}  // namespace sfs::graph
