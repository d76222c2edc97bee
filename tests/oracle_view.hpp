// A set-based model of LocalView's request accounting, for differential
// tests: the request semantics that search/local_view.hpp quotes, kept in
// plain sets (known vertices, explored edges, requested vertices), a
// discovery order and a first-revealer map, with no stamps and no slot
// cursors.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "search/local_view.hpp"

namespace sfs::test {

using graph::EdgeId;
using graph::Graph;
using graph::kNoVertex;
using graph::VertexId;
using search::KnowledgeModel;

inline bool alive(const std::vector<std::uint8_t>& mask, std::size_t i) {
  return mask.empty() || mask[i] != 0;
}

// The request semantics, read straight off the model: a weak request
// (u, e) reveals e's other endpoint and is charged once per edge; a strong
// request for u reveals every neighbour of u and is charged once per
// vertex. Under a liveness mask a probe of a dead edge or departed vertex
// fails, is never charged and reveals nothing; a failed weak probe still
// explores its edge and a failed strong one still requests its vertex; a
// strong open skips dead links but reveals departed endpoints.
class OracleView {
 public:
  OracleView(const Graph& g, KnowledgeModel model, VertexId start,
             VertexId target, const std::vector<std::uint8_t>& vertex_alive,
             const std::vector<std::uint8_t>& edge_alive)
      : g_(g),
        model_(model),
        target_(target),
        vertex_alive_(vertex_alive),
        edge_alive_(edge_alive) {
    reveal(start, kNoVertex);
  }

  VertexId request_edge(VertexId u, EdgeId e) {
    ++raw_;
    const VertexId v = far_end(e, u);
    if (!alive(edge_alive_, e) || !alive(vertex_alive_, v)) {
      ++failed_;
      explored_.insert(e);
      return kNoVertex;
    }
    if (explored_.insert(e).second) {
      ++requests_;
      if (!known_.contains(v)) reveal(v, u);
    }
    return v;
  }

  void request_vertex(VertexId u) {
    ++raw_;
    if (!alive(vertex_alive_, u)) {
      ++failed_;
      requested_.insert(u);
      return;
    }
    if (!requested_.insert(u).second) return;
    ++requests_;
    for (const EdgeId e : g_.incident(u)) {
      if (!alive(edge_alive_, e)) continue;
      const VertexId v = far_end(e, u);
      if (!known_.contains(v)) reveal(v, u);
    }
  }

  // The neighbour list a strong answer carries, in incidence order.
  [[nodiscard]] std::vector<VertexId> neighbours(VertexId u) const {
    std::vector<VertexId> out;
    for (const EdgeId e : g_.incident(u)) out.push_back(far_end(e, u));
    return out;
  }

  [[nodiscard]] bool known(VertexId v) const { return known_.contains(v); }
  [[nodiscard]] const std::vector<VertexId>& order() const { return order_; }
  [[nodiscard]] VertexId discoverer(VertexId v) const {
    const auto it = revealer_.find(v);
    return it == revealer_.end() ? kNoVertex : it->second;
  }
  [[nodiscard]] bool target_found() const { return known(target_); }

  [[nodiscard]] bool vertex_requested(VertexId u) const {
    if (model_ == KnowledgeModel::kStrong) return requested_.contains(u);
    return known(u) && !first_unexplored_slot(u).has_value();
  }

  [[nodiscard]] std::optional<std::uint32_t> first_unexplored_slot(
      VertexId v) const {
    const auto inc = g_.incident(v);
    for (std::uint32_t slot = 0; slot < inc.size(); ++slot) {
      if (!explored_.contains(inc[slot])) return slot;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::vector<VertexId> path() const {
    std::vector<VertexId> out;
    for (VertexId v = target_; v != kNoVertex; v = discoverer(v)) {
      out.insert(out.begin(), v);
    }
    return out;
  }

  [[nodiscard]] std::size_t requests() const { return requests_; }
  [[nodiscard]] std::size_t raw_requests() const { return raw_; }
  [[nodiscard]] std::size_t failed_requests() const { return failed_; }

 private:
  [[nodiscard]] VertexId far_end(EdgeId e, VertexId u) const {
    const auto& edge = g_.edge(e);
    EXPECT_TRUE(edge.tail == u || edge.head == u) << "edge " << e;
    return edge.tail == u ? edge.head : edge.tail;
  }
  void reveal(VertexId v, VertexId via) {
    known_.insert(v);
    order_.push_back(v);
    revealer_.emplace(v, via);
  }

  const Graph& g_;
  KnowledgeModel model_;
  VertexId target_;
  const std::vector<std::uint8_t>& vertex_alive_;
  const std::vector<std::uint8_t>& edge_alive_;
  std::set<VertexId> known_;
  std::set<EdgeId> explored_;
  std::set<VertexId> requested_;
  std::vector<VertexId> order_;
  std::map<VertexId, VertexId> revealer_;
  std::size_t requests_ = 0;
  std::size_t raw_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace sfs::test
