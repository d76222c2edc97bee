// Immutable multigraph with directed edge origins and undirected incidence.
//
// All graph models in the paper are *constructed* as oriented graphs (each
// new vertex emits out-edges), but "searching always takes place in the
// corresponding unoriented graph". Graph therefore stores, for every edge,
// its construction orientation (tail -> head), and exposes an undirected
// incidence structure (CSR) that the search layer and all algorithms use.
//
// Multigraph semantics: parallel edges and self-loops are allowed — the
// merged Móri graph G^{(m)} produces both. A self-loop appears twice in the
// incidence list of its vertex and contributes 2 to its degree (standard
// multigraph convention).
//
// Vertex ids are 0-based std::uint32_t. The paper numbers vertices 1..n;
// the paper's vertex t is id t-1 here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/check.hpp"
#include "base/prefetch.hpp"

namespace sfs::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Sentinel for "no vertex" (e.g. BFS parent of the root).
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);
/// Sentinel for "no edge".
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// A directed edge as constructed by a generator: tail emitted the edge,
/// head received it (head's indegree grows).
struct Edge {
  VertexId tail = kNoVertex;
  VertexId head = kNoVertex;

  [[nodiscard]] bool is_loop() const noexcept { return tail == head; }
  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder;

/// Immutable multigraph. Construct through GraphBuilder, or a recursive
/// tree through build_recursive_tree (graph/builder.hpp).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }

  /// The directed edge record for edge id `e`.
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    SFS_REQUIRE(e < edges_.size(), "edge id out of range");
    return edges_[e];
  }

  /// Undirected incidence list of `v`: every edge id with `v` as an
  /// endpoint, self-loops listed twice. Order: by edge id, tail occurrences
  /// and head occurrences mixed in construction order.
  [[nodiscard]] std::span<const EdgeId> incident(VertexId v) const {
    SFS_REQUIRE(v < num_vertices(), "vertex id out of range");
    return {incidence_.data() + offsets_[v],
            incidence_.data() + offsets_[v + 1]};
  }

  /// Neighbor ids of `v`, slot-aligned with incident(v): adjacent(v)[i] is
  /// the endpoint of incident(v)[i] opposite to `v` (a self-loop
  /// contributes `v` itself, twice). This is the search-layer fast path:
  /// hot loops read the neighbor straight from the CSR payload instead of
  /// bouncing through edges_[e].
  [[nodiscard]] std::span<const VertexId> adjacent(VertexId v) const {
    SFS_REQUIRE(v < num_vertices(), "vertex id out of range");
    return {incidence_vertex_.data() + offsets_[v],
            incidence_vertex_.data() + offsets_[v + 1]};
  }

  /// Undirected degree (self-loops count twice).
  [[nodiscard]] std::size_t degree(VertexId v) const {
    SFS_REQUIRE(v < num_vertices(), "vertex id out of range");
    return offsets_[v + 1] - offsets_[v];
  }

  /// Cache hint for a coming degree(v) call. Requires v < num_vertices(),
  /// unchecked; no effect on results.
  void prefetch_degree(VertexId v) const noexcept {
    base::prefetch(offsets_.data() + v);
  }

  /// Indegree under the construction orientation.
  [[nodiscard]] std::size_t in_degree(VertexId v) const {
    SFS_REQUIRE(v < num_vertices(), "vertex id out of range");
    return in_degree_[v];
  }

  /// Outdegree under the construction orientation.
  [[nodiscard]] std::size_t out_degree(VertexId v) const {
    SFS_REQUIRE(v < num_vertices(), "vertex id out of range");
    return out_degree_[v];
  }

  /// True if some edge joins `u` and `v` in the unoriented graph
  /// (O(min(deg u, deg v))).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// All edge records (construction order).
  [[nodiscard]] std::span<const Edge> edges() const noexcept {
    return edges_;
  }

 private:
  friend class GraphBuilder;
  friend void build_recursive_tree(std::span<const VertexId> fathers,
                                   Graph& g);

  std::vector<Edge> edges_;
  std::vector<std::size_t> offsets_;      // CSR offsets, size n+1
  std::vector<EdgeId> incidence_;         // CSR payload, size 2m
  std::vector<VertexId> incidence_vertex_;  // far endpoint per slot, size 2m
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint32_t> out_degree_;
};

}  // namespace sfs::graph
