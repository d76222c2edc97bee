#include "graph/graph.hpp"

namespace sfs::graph {

bool Graph::has_edge(VertexId u, VertexId v) const {
  SFS_REQUIRE(u < num_vertices() && v < num_vertices(),
              "vertex id out of range");
  const VertexId probe = degree(u) <= degree(v) ? u : v;
  const VertexId other = probe == u ? v : u;
  for (const VertexId w : adjacent(probe)) {
    if (w == other) return true;
  }
  return false;
}

}  // namespace sfs::graph
