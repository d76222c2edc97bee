#include "graph/builder.hpp"

#include <utility>

namespace sfs::graph {

void validate_edge_capacity(std::size_t num_edges) {
  SFS_REQUIRE(num_edges <= static_cast<std::size_t>(kNoEdge),
              "edge count does not fit EdgeId (kNoEdge is a sentinel)");
  // Each edge occupies two incidence slots; on 32-bit size_t hosts 2m can
  // wrap before the EdgeId bound above trips.
  (void)checked_mul(num_edges, 2, "incidence slot count 2m");
}

void build_recursive_tree(std::span<const VertexId> fathers, Graph& g) {
  const std::size_t n = fathers.size();
  SFS_REQUIRE(n >= 1, "a recursive tree has a root");
  SFS_REQUIRE(n <= static_cast<std::size_t>(kNoVertex),
              "vertex count overflow");
  SFS_REQUIRE(fathers[0] == kNoVertex, "the root has no father");
  bool older = true;
  for (std::size_t v = 1; v < n; ++v) older &= fathers[v] < v;
  SFS_REQUIRE(older, "every father must be older than its child");
  validate_edge_capacity(n - 1);

  // Pass 1: edge records and indegrees. Edge v-1 is v's out-edge.
  g.edges_.resize(n - 1);
  g.in_degree_.assign(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    g.edges_[v - 1] = Edge{static_cast<VertexId>(v), fathers[v]};
    ++g.in_degree_[fathers[v]];
  }
  // Pass 2: offsets. Every vertex but the root also has its out-edge.
  g.offsets_.resize(n + 1);
  g.offsets_[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + g.in_degree_[v] + (v > 0 ? 1 : 0);
  }
  // Pass 3: one scatter in edge-id order, so each list comes out in the
  // order GraphBuilder writes it. Child c takes its own first slot and
  // appends its edge to its father's list. The out-degree array serves as
  // the cursor (slots filled per vertex), which starts at 1 past a
  // non-root vertex's own slot; every slot is written once, so the
  // payloads need no sentinel fill.
  g.incidence_.resize(2 * (n - 1));
  g.incidence_vertex_.resize(2 * (n - 1));
  g.out_degree_.assign(n, 1);
  g.out_degree_[0] = 0;
  for (std::size_t c = 1; c < n; ++c) {
    const VertexId f = fathers[c];
    const auto e = static_cast<EdgeId>(c - 1);
    g.incidence_[g.offsets_[c]] = e;
    g.incidence_vertex_[g.offsets_[c]] = f;
    const std::size_t slot = g.offsets_[f] + g.out_degree_[f]++;
    g.incidence_[slot] = e;
    g.incidence_vertex_[slot] = static_cast<VertexId>(c);
  }
  g.out_degree_.assign(n, 1);
  g.out_degree_[0] = 0;
}

void GraphBuilder::reset(std::size_t n) {
  SFS_REQUIRE(n <= static_cast<std::size_t>(kNoVertex),
              "vertex count overflow");
  num_vertices_ = n;
  edges_.clear();
}

EdgeId GraphBuilder::add_edge(VertexId tail, VertexId head) {
  SFS_REQUIRE(tail < num_vertices_, "edge tail does not exist");
  SFS_REQUIRE(head < num_vertices_, "edge head does not exist");
  SFS_REQUIRE(edges_.size() < kNoEdge, "edge count overflow");
  edges_.push_back(Edge{tail, head});
  return static_cast<EdgeId>(edges_.size() - 1);
}

Graph GraphBuilder::build() {
  Graph g;
  build_into(g);
  return g;
}

void GraphBuilder::build_into(Graph& g) {
  const std::size_t n = num_vertices_;
  validate_edge_capacity(edges_.size());
  // Swap rather than move: the builder inherits g's previous edge buffer
  // (sized for the last replication), so the next reset + add_edge cycle
  // reuses it.
  g.edges_.swap(edges_);
  edges_.clear();
  num_vertices_ = 0;

  g.in_degree_.assign(n, 0);
  g.out_degree_.assign(n, 0);
  // Counting pass: undirected degree per vertex (loops twice).
  deg_scratch_.assign(n, 0);
  for (const Edge& e : g.edges_) {
    ++deg_scratch_[e.tail];
    ++deg_scratch_[e.head];
    ++g.out_degree_[e.tail];
    ++g.in_degree_[e.head];
  }
  g.offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + deg_scratch_[v];
  }
  g.incidence_.assign(g.offsets_[n], kNoEdge);
  g.incidence_vertex_.assign(g.offsets_[n], kNoVertex);

  cursor_scratch_.assign(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < g.edges_.size(); ++i) {
    const auto id = static_cast<EdgeId>(i);
    const Edge& e = g.edges_[i];
    g.incidence_[cursor_scratch_[e.tail]] = id;
    g.incidence_vertex_[cursor_scratch_[e.tail]++] = e.head;
    g.incidence_[cursor_scratch_[e.head]] = id;  // self-loop: listed twice
    g.incidence_vertex_[cursor_scratch_[e.head]++] = e.tail;
  }
}

}  // namespace sfs::graph
