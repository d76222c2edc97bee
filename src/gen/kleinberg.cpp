#include "gen/kleinberg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::VertexId;

KleinbergGrid::KleinbergGrid(std::size_t L, const KleinbergParams& params,
                             rng::Rng& rng)
    : L_(L), params_(params) {
  SFS_REQUIRE(L >= 2, "grid side must be >= 2");
  SFS_REQUIRE(params_.r >= 0.0, "long-range exponent must be >= 0");
  const std::size_t n = checked_mul(L, L, "Kleinberg L*L overflows");

  // Enumerate all non-zero torus offsets once, weighted dist^{-r}; sampling
  // a long-range contact is then one alias-table draw. Exact law, O(L^2)
  // memory.
  std::vector<double> weights;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> offsets;
  weights.reserve(n - 1);
  offsets.reserve(n - 1);
  for (std::size_t dx = 0; dx < L; ++dx) {
    for (std::size_t dy = 0; dy < L; ++dy) {
      if (dx == 0 && dy == 0) continue;
      const std::size_t ax = std::min(dx, L - dx);
      const std::size_t ay = std::min(dy, L - dy);
      const double dist = static_cast<double>(ax + ay);
      offsets.emplace_back(static_cast<std::uint32_t>(dx),
                           static_cast<std::uint32_t>(dy));
      weights.push_back(std::pow(dist, -params_.r));
    }
  }
  const rng::AliasTable offset_dist{std::span<const double>(weights)};

  graph::GraphBuilder builder(n);
  builder.reserve_edges(checked_add(
      checked_mul(2, n, "Kleinberg local edge count overflows"),
      checked_mul(params_.q, n, "Kleinberg long-range edge count overflows"),
      "Kleinberg edge count overflows"));
  // Local edges: each vertex emits "right" and "down" so each lattice edge
  // appears once; on the torus every vertex ends with 4 local neighbors.
  for (std::size_t x = 0; x < L; ++x) {
    for (std::size_t y = 0; y < L; ++y) {
      const VertexId v = vertex_at(x, y);
      builder.add_edge(v, vertex_at(x + 1, y));
      builder.add_edge(v, vertex_at(x, y + 1));
    }
  }
  // Long-range edges.
  for (std::size_t x = 0; x < L; ++x) {
    for (std::size_t y = 0; y < L; ++y) {
      const VertexId v = vertex_at(x, y);
      for (std::size_t k = 0; k < params_.q; ++k) {
        const auto [dx, dy] = offsets[offset_dist.sample(rng)];
        builder.add_edge(v, vertex_at(x + dx, y + dy));
      }
    }
  }
  builder.build_into(graph_);
}

std::pair<std::size_t, std::size_t> KleinbergGrid::coords(VertexId v) const {
  SFS_REQUIRE(v < num_vertices(), "vertex out of range");
  return {v / L_, v % L_};
}

VertexId KleinbergGrid::vertex_at(std::size_t x, std::size_t y) const {
  return static_cast<VertexId>((x % L_) * L_ + (y % L_));
}

std::size_t KleinbergGrid::lattice_distance(VertexId u, VertexId v) const {
  const auto [ux, uy] = coords(u);
  const auto [vx, vy] = coords(v);
  const std::size_t dx = ux > vx ? ux - vx : vx - ux;
  const std::size_t dy = uy > vy ? uy - vy : vy - uy;
  return std::min(dx, L_ - dx) + std::min(dy, L_ - dy);
}

}  // namespace sfs::gen
