// Kleinberg's navigable small-world grid (Kle00), the positive contrast to
// the paper's negative result: with long-range links drawn ∝ d^{-r} on a
// 2-D lattice, greedy geographic routing takes O(log² n) steps iff r = 2
// and polynomial time otherwise.
//
// We use an L×L torus with Manhattan (lattice) distance. The torus variant
// (instead of Kleinberg's bordered lattice) keeps every vertex statistically
// identical, which simplifies both the generator and the routing analysis;
// the navigability dichotomy at r = d = 2 is unchanged (this is the common
// convention in follow-up work).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "graph/graph.hpp"
#include "rng/discrete.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

struct KleinbergParams {
  /// Long-range exponent r >= 0 (r = 2 is the navigable point in 2-D).
  double r = 2.0;
  /// Long-range out-edges per vertex.
  std::size_t q = 1;
};

/// An L×L torus with 4 local (lattice) edges per vertex plus q long-range
/// out-edges per vertex drawn with P(offset) ∝ dist^{-r}. Owns the Graph
/// and the coordinate geometry used by greedy routing.
class KleinbergGrid {
 public:
  /// Builds the grid; requires L >= 2.
  KleinbergGrid(std::size_t L, const KleinbergParams& params, rng::Rng& rng);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::size_t side() const noexcept { return L_; }
  [[nodiscard]] std::size_t num_vertices() const noexcept { return L_ * L_; }
  [[nodiscard]] const KleinbergParams& params() const noexcept {
    return params_;
  }

  /// Coordinates of a vertex id (row-major layout).
  [[nodiscard]] std::pair<std::size_t, std::size_t> coords(
      graph::VertexId v) const;
  /// Vertex id of coordinates (taken mod L).
  [[nodiscard]] graph::VertexId vertex_at(std::size_t x, std::size_t y) const;

  /// Manhattan distance on the torus.
  [[nodiscard]] std::size_t lattice_distance(graph::VertexId u,
                                             graph::VertexId v) const;

 private:
  std::size_t L_;
  KleinbergParams params_;
  graph::Graph graph_;
};

}  // namespace sfs::gen
