#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

#include "graph/builder.hpp"

namespace sfs::graph {

BfsResult bfs(const Graph& g, VertexId source) {
  SFS_REQUIRE(source < g.num_vertices(), "BFS source out of range");
  const std::size_t n = g.num_vertices();
  BfsResult r;
  r.distance.assign(n, kUnreachable);
  r.parent.assign(n, kNoVertex);
  r.parent_edge.assign(n, kNoEdge);
  r.distance[source] = 0;
  r.farthest = source;

  std::deque<VertexId> queue{source};
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    const auto inc = g.incident(u);
    const auto adj = g.adjacent(u);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      const VertexId v = adj[i];
      if (r.distance[v] != kUnreachable) continue;
      r.distance[v] = r.distance[u] + 1;
      r.parent[v] = u;
      r.parent_edge[v] = inc[i];
      if (r.distance[v] > r.max_distance) {
        r.max_distance = r.distance[v];
        r.farthest = v;
      }
      queue.push_back(v);
    }
  }
  return r;
}

std::uint32_t distance(const Graph& g, VertexId s, VertexId t) {
  SFS_REQUIRE(t < g.num_vertices(), "target out of range");
  return bfs(g, s).distance[t];
}

std::vector<std::size_t> Components::sizes() const {
  std::vector<std::size_t> s(count, 0);
  for (const std::uint32_t l : label) ++s[l];
  return s;
}

std::uint32_t Components::largest() const {
  SFS_REQUIRE(count > 0, "no components in an empty graph");
  const auto s = sizes();
  return static_cast<std::uint32_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

Components connected_components(const Graph& g) {
  const std::size_t n = g.num_vertices();
  Components c;
  c.label.assign(n, static_cast<std::uint32_t>(-1));
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (c.label[s] != static_cast<std::uint32_t>(-1)) continue;
    const auto lab = static_cast<std::uint32_t>(c.count++);
    c.label[s] = lab;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (const VertexId v : g.adjacent(u)) {
        if (c.label[v] == static_cast<std::uint32_t>(-1)) {
          c.label[v] = lab;
          stack.push_back(v);
        }
      }
    }
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

Subgraph induced_subgraph(const Graph& g, const std::vector<VertexId>& keep) {
  Subgraph out;
  out.to_new.assign(g.num_vertices(), kNoVertex);
  out.to_old = keep;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    SFS_REQUIRE(keep[i] < g.num_vertices(), "kept vertex out of range");
    SFS_REQUIRE(out.to_new[keep[i]] == kNoVertex, "duplicate vertex in keep");
    out.to_new[keep[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder b(keep.size());
  for (const Edge& e : g.edges()) {
    const VertexId nt = out.to_new[e.tail];
    const VertexId nh = out.to_new[e.head];
    if (nt != kNoVertex && nh != kNoVertex) b.add_edge(nt, nh);
  }
  out.graph = b.build();
  return out;
}

Subgraph largest_component(const Graph& g) {
  const Components c = connected_components(g);
  SFS_REQUIRE(c.count > 0, "empty graph has no components");
  const std::uint32_t big = c.largest();
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (c.label[v] == big) keep.push_back(v);
  }
  return induced_subgraph(g, keep);
}

bool is_tree(const Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n == 0) return false;
  if (g.num_edges() != n - 1) return false;
  for (const Edge& e : g.edges()) {
    if (e.is_loop()) return false;
  }
  return is_connected(g);
}

bool is_recursive_tree(const Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n == 0 || g.num_edges() != n - 1) return false;
  // n - 1 vertices with one older neighbour each account for n - 1
  // non-loop edges, which leaves none for a self-loop.
  for (VertexId v = 1; v < n; ++v) {
    std::size_t older = 0;
    for (const VertexId u : g.adjacent(v)) older += u < v;
    if (older != 1) return false;
  }
  return true;
}

std::uint32_t pseudo_diameter(const Graph& g, VertexId hint) {
  SFS_REQUIRE(g.num_vertices() > 0, "empty graph");
  const BfsResult first = bfs(g, hint);
  const BfsResult second = bfs(g, first.farthest);
  return second.max_distance;
}

DistanceStats sample_distances(const Graph& g, std::size_t samples,
                               rng::Rng& rng) {
  SFS_REQUIRE(g.num_vertices() > 0, "empty graph");
  DistanceStats st;
  st.sources = samples;
  double dist_sum = 0.0;
  std::size_t dist_count = 0;
  double ecc_sum = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto src = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
    const BfsResult r = bfs(g, src);
    for (const std::uint32_t d : r.distance) {
      if (d != kUnreachable && d > 0) {
        dist_sum += d;
        ++dist_count;
      }
    }
    ecc_sum += r.max_distance;
    st.max_observed = std::max(st.max_observed, r.max_distance);
  }
  if (dist_count > 0) st.mean_distance = dist_sum / static_cast<double>(dist_count);
  if (samples > 0) st.mean_eccentricity = ecc_sum / static_cast<double>(samples);
  return st;
}

}  // namespace sfs::graph
