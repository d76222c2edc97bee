// Mutable construction interface for Graph.
//
// Generators size the builder to their vertex count, append directed edges
// in construction order and finalize with build(), which packs the
// undirected incidence structure into CSR form. Edge ids are assigned in insertion order, which matters: the
// evolving-graph models and the equivalence machinery rely on "edge id order
// == time order".
#pragma once

#include <cstddef>
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
