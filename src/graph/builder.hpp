// Mutable construction interface for Graph.
//
// Generators size the builder to their vertex count, append directed edges
// in construction order and finalize with build(), which packs the
// undirected incidence structure into CSR form. Edge ids are assigned in insertion order, which matters: the
// evolving-graph models and the equivalence machinery rely on "edge id order
// == time order".
//
// A recursive tree (every vertex v >= 1 has one out-edge, to an older
// vertex) skips the builder: build_recursive_tree packs the same Graph
// straight from its father array.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sfs::graph {

/// Throws std::invalid_argument unless a graph with `num_edges` edges can
/// be finalized: every edge id must fit EdgeId (std::uint32_t, with
/// kNoEdge reserved as a sentinel) and the 2m undirected incidence slots
/// must be computable without size_t wrap-around. add_edge enforces this
/// incrementally; build_into re-checks the whole count so the CSR arrays
/// can never be sized from a wrapped value, and high-degree generators can
/// pre-validate a planned edge count before paying for construction.
void validate_edge_capacity(std::size_t num_edges);

/// Builds into `g` the recursive tree whose vertex v >= 1 has the single
/// out-edge v -> fathers[v]; fathers[0] == kNoVertex marks the root. The
/// result is the Graph that GraphBuilder packs from the edges
/// (v, fathers[v]) added in increasing v, bit for bit: edge v-1 is v's
/// out-edge, and v's incidence list holds that edge first, then the
/// edges of its children in increasing child id. Recycles g's buffers and
/// needs no scratch. Throws std::invalid_argument, leaving `g` untouched,
/// unless fathers is non-empty, at most kNoVertex long, fathers[0] ==
/// kNoVertex and fathers[v] < v for every v >= 1.
void build_recursive_tree(std::span<const VertexId> fathers, Graph& g);

class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Starts with `n` isolated vertices. Requires n <= kNoVertex.
  explicit GraphBuilder(std::size_t n) { reset(n); }

  /// Re-initializes to `n` isolated vertices and no edges, keeping every
  /// internal buffer's capacity. This is the zero-realloc entry point for
  /// replication loops: reset + add_edge* + build_into touches the
  /// allocator only while the graphs are still growing past the
  /// high-water mark.
  void reset(std::size_t n);

  /// Pre-allocates for `m` edges.
  void reserve_edges(std::size_t m) { edges_.reserve(m); }

  /// Appends the directed edge tail -> head; returns its id.
  /// Both endpoints must already exist. Parallel edges and loops allowed.
  EdgeId add_edge(VertexId tail, VertexId head);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }

  /// Finalizes into an immutable Graph. The builder is left empty.
  [[nodiscard]] Graph build();

  /// Finalizes into `g`, recycling g's CSR arrays (offsets_, incidence_,
  /// incidence_vertex_) and degree vectors instead of reallocating them.
  /// The builder swaps its edge log with g's previous one (keeping its
  /// capacity for the next replication) and is left empty, exactly as
  /// after build(). Equivalent to `g = build()` — same Graph, bit for bit.
  void build_into(Graph& g);

 private:
  std::size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  // CSR packing scratch reused across build_into() calls.
  std::vector<std::size_t> deg_scratch_;
  std::vector<std::size_t> cursor_scratch_;
};

}  // namespace sfs::graph
