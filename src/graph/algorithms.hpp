// Whole-graph algorithms on the unoriented view: BFS, connectivity,
// distance/diameter estimation, tree checks.
//
// These are the instruments behind experiment E9 (logarithmic diameter of
// the scale-free models, contrasted with the polynomial search lower bound)
// and behind many structural test invariants.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::graph {

/// Distance value for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// Result of a single-source BFS.
struct BfsResult {
  std::vector<std::uint32_t> distance;  // kUnreachable if not reached
  std::vector<VertexId> parent;         // kNoVertex for source/unreached
  std::vector<EdgeId> parent_edge;      // kNoEdge for source/unreached
  std::uint32_t max_distance = 0;       // eccentricity within the component
  VertexId farthest = kNoVertex;        // a vertex at max_distance
};

/// Breadth-first search from `source` over the unoriented multigraph.
[[nodiscard]] BfsResult bfs(const Graph& g, VertexId source);

/// Shortest-path distance between two vertices (kUnreachable if none).
[[nodiscard]] std::uint32_t distance(const Graph& g, VertexId s, VertexId t);

/// Component label per vertex (labels are 0..k-1 in discovery order) and
/// component count.
struct Components {
  std::vector<std::uint32_t> label;
  std::size_t count = 0;

  /// Sizes indexed by label.
  [[nodiscard]] std::vector<std::size_t> sizes() const;
  /// Label of the largest component (ties: smallest label).
  [[nodiscard]] std::uint32_t largest() const;
};

[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// Induced subgraph on the given vertices (ids are re-mapped to 0..k-1 in
/// the order given; returns the mapping old->new for callers that need it).
struct Subgraph {
  Graph graph;
  std::vector<VertexId> to_old;                // new id -> old id
  std::vector<VertexId> to_new;                // old id -> new id or kNoVertex
};

[[nodiscard]] Subgraph induced_subgraph(const Graph& g,
                                        const std::vector<VertexId>& keep);

/// Largest connected component as a subgraph.
[[nodiscard]] Subgraph largest_component(const Graph& g);

/// True if the unoriented graph is a tree: connected, m == n-1, no loops.
[[nodiscard]] bool is_tree(const Graph& g);

/// True if `g` is a recursive tree: m == n-1, and every vertex but 0 has
/// exactly one incident edge to an older (smaller-id) vertex. Following
/// those edges from any vertex then reaches vertex 0 with ids decreasing,
/// so the graph is a tree, loop-free and without parallel edges, whose
/// ids increase along every path from vertex 0: what every m = 1 growth
/// process builds (the Móri tree among them). One pass over the
/// incidence lists, O(n + m).
[[nodiscard]] bool is_recursive_tree(const Graph& g);

/// Pseudo-diameter by the double-sweep heuristic: BFS from `hint`, then BFS
/// from the farthest vertex found; returns that second eccentricity (a lower
/// bound on the true diameter, usually tight on small-world graphs).
[[nodiscard]] std::uint32_t pseudo_diameter(const Graph& g,
                                            VertexId hint = 0);

/// Distance statistics estimated from `samples` random-source BFS runs.
struct DistanceStats {
  double mean_distance = 0.0;     // over reachable ordered pairs sampled
  double mean_eccentricity = 0.0; // over sampled sources
  std::uint32_t max_observed = 0; // max eccentricity seen (diameter l.b.)
  std::size_t sources = 0;
};

[[nodiscard]] DistanceStats sample_distances(const Graph& g, std::size_t samples,
                                             rng::Rng& rng);

}  // namespace sfs::graph
