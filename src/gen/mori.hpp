// The Móri random tree and the merged m-out Móri graph (paper §1).
//
// Móri tree G_t: starts at time t = 2 with vertices {1, 2} (paper ids) and a
// single edge 2 -> 1. At each later time t, vertex t is added with one
// out-edge to an older vertex u chosen with probability proportional to
//
//     p * d_t(u) + (1 - p),
//
// where d_t(u) is the *indegree* of u at time t and 0 < p <= 1. Writing
// W_t = p (t-2) + (1-p)(t-1) for the normalizing constant (t-2 edges and
// t-1 candidate vertices exist when vertex t chooses), the law is sampled
// exactly by a two-stage mixture: with probability p (t-2) / W_t pick the
// head of a uniform past edge (indegree-proportional), otherwise pick a
// uniform vertex of [1, t-1]. No mean-field approximation is involved.
//
// The father array is the whole state. The heads of the past edges are
// the fathers of vertices 2..t-1, so the preferential stage reads a
// uniform element of that stretch of the array, and the tree's Graph is
// packed straight from the array (graph::build_recursive_tree).
//
// Special cases (tested): p -> 0 is the uniform random recursive tree;
// p = 1 is degenerate — only vertex 1 ever has positive weight, so G_t is
// the star centered at vertex 1.
//
// Merged m-out graph G^{(m)}: build the Móri tree of size n*m and merge
// paper vertices m(i-1)+1 .. mi into merged vertex i. The result is a
// connected multigraph on n vertices with n*m - 1 edges (self-loops and
// parallel edges possible).
//
// Ids: this header returns 0-based ids; paper vertex t is id t-1.
#pragma once

#include <cstddef>
#include <vector>

#include "gen/scratch.hpp"
#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

/// Parameters of the Móri process.
struct MoriParams {
  /// Preferential-attachment weight, 0 < p <= 1 per the paper. p = 0 is
  /// also accepted and yields the uniform random recursive tree.
  double p = 0.5;
};

/// Generates the Móri tree with n >= 2 vertices. The returned graph has
/// exactly n - 1 edges; edge k (0-based) is the out-edge of vertex k+1, so
/// edge order is insertion-time order.
[[nodiscard]] graph::Graph mori_tree(std::size_t n, const MoriParams& params,
                                     rng::Rng& rng);

/// Father (head of the unique out-edge) of every vertex in a Móri-shaped
/// tree; fathers[0] == kNoVertex for the root. Requires that every vertex
/// v >= 1 has exactly one out-edge, to a vertex < v (a "recursive tree").
[[nodiscard]] std::vector<graph::VertexId> fathers(const graph::Graph& tree);

/// Generates the merged m-out Móri graph with n >= 1 merged vertices:
/// builds the Móri tree on n*m vertices and contracts groups of m
/// consecutive vertices. Requires n*m >= 2.
[[nodiscard]] graph::Graph merged_mori_graph(std::size_t n, std::size_t m,
                                             const MoriParams& params,
                                             rng::Rng& rng);

/// Contracts groups of `m` consecutive vertices of `g` (0-based: vertices
/// [m*i, m*(i+1)) become vertex i). Exposed separately so tests can check
/// the merge independently of the tree process. Requires
/// g.num_vertices() % m == 0.
[[nodiscard]] graph::Graph merge_consecutive(const graph::Graph& g,
                                             std::size_t m);

/// Scratch-reusing overloads: regenerate `out` in place, recycling the
/// father array and CSR buffers. Bit-identical to the fresh paths. The
/// merged overload with m >= 2 uses scratch.tmp_graph for the underlying
/// tree and scratch.builder for the merge, so never pass scratch.tmp_graph
/// as `out`; with m = 1 it builds the tree straight into `out`.
void mori_tree(std::size_t n, const MoriParams& params, rng::Rng& rng,
               GenScratch& scratch, graph::Graph& out);
void merge_consecutive(const graph::Graph& g, std::size_t m,
                       GenScratch& scratch, graph::Graph& out);
void merged_mori_graph(std::size_t n, std::size_t m, const MoriParams& params,
                       rng::Rng& rng, GenScratch& scratch, graph::Graph& out);

/// Incremental Móri process, exposed for the equivalence/event machinery
/// (core/equivalence.hpp) which needs to observe fathers as they are drawn.
class MoriProcess {
 public:
  /// Initializes the t = 2 state (vertices {0, 1}, edge 1 -> 0).
  explicit MoriProcess(const MoriParams& params);

  /// Same, but borrows the father array from `scratch` so repeated
  /// processes recycle its capacity. Call release_scratch(scratch) when
  /// done to return it; the scratch must outlive the process.
  MoriProcess(const MoriParams& params, GenScratch& scratch);

  /// Number of vertices so far (>= 2).
  [[nodiscard]] std::size_t size() const noexcept {
    return fathers_.size();
  }

  /// Adds the next vertex; returns the father it attached to (0-based).
  graph::VertexId step(rng::Rng& rng);

  /// Runs until `n` vertices exist. Requires 2 <= n <= kNoVertex, checked
  /// before anything grows.
  void grow_to(std::size_t n, rng::Rng& rng);

  /// fathers()[v] is the father of v (kNoVertex for v = 0).
  [[nodiscard]] const std::vector<graph::VertexId>& all_fathers()
      const noexcept {
    return fathers_;
  }

  /// Materializes the current tree as a Graph
  /// (graph::build_recursive_tree of all_fathers()).
  [[nodiscard]] graph::Graph graph() const;

  /// Materializes into `out`, recycling its buffers. The build needs no
  /// scratch, so `scratch` is not read.
  void graph_into(GenScratch& scratch, graph::Graph& out) const;

  /// Returns the borrowed father array to `scratch` (pair of the
  /// scratch-borrowing constructor). The process must not be used
  /// afterwards.
  void release_scratch(GenScratch& scratch) noexcept;

 private:
  void init_seed_state();

  MoriParams params_;
  std::vector<graph::VertexId> fathers_;  // fathers_[0] = kNoVertex
};

}  // namespace sfs::gen
