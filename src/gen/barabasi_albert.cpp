#include "gen/barabasi_albert.hpp"

#include <algorithm>
#include <vector>

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Graph;
using graph::VertexId;

Graph barabasi_albert(std::size_t n, const BarabasiAlbertParams& params,
                      rng::Rng& rng) {
  SFS_REQUIRE(n >= 1, "need at least one vertex");
  SFS_REQUIRE(params.m >= 1, "BA needs m >= 1");
  // Checked reserve math: (n - 1) * m wraps for large n and would silently
  // under-reserve (or "pass" a fits-in-EdgeId test) instead of failing.
  const std::size_t total_edges = checked_add(
      1, checked_mul(n - 1, params.m, "BA edge count (n-1)*m overflows"),
      "BA edge count overflows");
  SFS_REQUIRE(total_edges <= static_cast<std::size_t>(graph::kNoEdge),
              "BA edge count exceeds the edge id range");

  graph::GraphBuilder b(n);
  b.reserve_edges(total_edges);
  // Total-degree bag: one entry per edge endpoint.
  std::vector<VertexId> bag;
  bag.reserve(checked_mul(2, total_edges, "BA bag size overflows"));

  // Seed: vertex 0 with a self-loop (degree 2).
  b.add_edge(0, 0);
  bag.push_back(0);
  bag.push_back(0);

  std::vector<VertexId> targets;
  for (VertexId v = 1; v < n; ++v) {
    targets.clear();
    const std::size_t want = std::min<std::size_t>(params.m, v);
    // At most v distinct older vertices exist; resample duplicates (degree
    // mass >> m makes retries rare).
    while (targets.size() < want) {
      const VertexId t =
          bag[static_cast<std::size_t>(rng.uniform_index(bag.size()))];
      if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
        continue;
      }
      targets.push_back(t);
    }
    for (const VertexId t : targets) {
      b.add_edge(v, t);
      bag.push_back(v);
      bag.push_back(t);
    }
  }
  return b.build();
}

}  // namespace sfs::gen
