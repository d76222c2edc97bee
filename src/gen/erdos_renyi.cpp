#include "gen/erdos_renyi.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Graph;
using graph::VertexId;

Graph erdos_renyi_gnm(std::size_t n, std::size_t m, rng::Rng& rng) {
  SFS_REQUIRE(n >= 2, "need at least two vertices");
  const std::size_t max_edges = n * (n - 1) / 2;
  SFS_REQUIRE(m <= max_edges, "too many edges requested");

  graph::GraphBuilder b(n);
  b.reserve_edges(m);
  // Rejection over unordered pairs; fine for m well under the maximum, and
  // still correct (if slow) near it.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m);
  while (seen.size() < m) {
    const auto u = static_cast<VertexId>(rng.uniform_index(n));
    auto v = static_cast<VertexId>(rng.uniform_index(n - 1));
    if (v >= u) ++v;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
    if (seen.insert(key).second) b.add_edge(u, v);
  }
  return b.build();
}

Graph erdos_renyi_gnp(std::size_t n, double prob, rng::Rng& rng) {
  SFS_REQUIRE(n >= 1, "need at least one vertex");
  SFS_REQUIRE(prob >= 0.0 && prob <= 1.0, "probability out of range");
  graph::GraphBuilder b(n);
  if (prob <= 0.0) return b.build();
  if (prob >= 1.0) {
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
    return b.build();
  }
  // Batagelj–Brandes geometric skipping over the lexicographic pair order.
  const double log_q = std::log(1.0 - prob);
  std::int64_t u = 1;
  std::int64_t v = -1;
  const auto nn = static_cast<std::int64_t>(n);
  while (u < nn) {
    const double r = 1.0 - rng.uniform();
    v += 1 + static_cast<std::int64_t>(std::floor(std::log(r) / log_q));
    while (v >= u && u < nn) {
      v -= u;
      ++u;
    }
    if (u < nn) {
      b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
  }
  return b.build();
}

}  // namespace sfs::gen
