#include "gen/mori.hpp"

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Graph;
using graph::GraphBuilder;
using graph::kNoVertex;
using graph::VertexId;

MoriProcess::MoriProcess(const MoriParams& params) : params_(params) {
  SFS_REQUIRE(params.p >= 0.0 && params.p <= 1.0, "Mori p must be in [0,1]");
  init_seed_state();
}

MoriProcess::MoriProcess(const MoriParams& params, GenScratch& scratch)
    : params_(params) {
  SFS_REQUIRE(params.p >= 0.0 && params.p <= 1.0, "Mori p must be in [0,1]");
  fathers_.swap(scratch.fathers);
  head_bag_.swap(scratch.pref_bag);
  in_degree_.swap(scratch.in_degree);
  init_seed_state();
}

void MoriProcess::init_seed_state() {
  fathers_.assign({kNoVertex, 0});  // vertex 1 attaches to vertex 0
  head_bag_.assign({0});
  in_degree_.assign({1, 0});
}

void MoriProcess::release_scratch(GenScratch& scratch) noexcept {
  fathers_.swap(scratch.fathers);
  head_bag_.swap(scratch.pref_bag);
  in_degree_.swap(scratch.in_degree);
}

VertexId MoriProcess::step(rng::Rng& rng) {
  // The new vertex is t (paper numbering t+1 = size()+1). When it chooses,
  // there are `size()` candidate vertices and `size() - 1` edges.
  const auto candidates = static_cast<double>(fathers_.size());
  const auto edges = candidates - 1.0;
  const double p = params_.p;
  const double w_pref = p * edges;
  const double w_unif = (1.0 - p) * candidates;
  const double total = w_pref + w_unif;
  SFS_CHECK(total > 0.0, "degenerate Mori weights");

  VertexId father;
  if (rng.uniform() * total < w_pref) {
    // Indegree-proportional: uniform element of the bag of past heads.
    father = head_bag_[static_cast<std::size_t>(
        rng.uniform_index(head_bag_.size()))];
  } else {
    father = static_cast<VertexId>(rng.uniform_index(fathers_.size()));
  }
  fathers_.push_back(father);
  head_bag_.push_back(father);
  in_degree_.push_back(0);
  ++in_degree_[father];
  return father;
}

void MoriProcess::grow_to(std::size_t n, rng::Rng& rng) {
  SFS_REQUIRE(n >= 2, "Mori tree needs at least 2 vertices");
  while (fathers_.size() < n) (void)step(rng);
}

std::size_t MoriProcess::in_degree(VertexId v) const {
  SFS_REQUIRE(v < in_degree_.size(), "vertex out of range");
  return in_degree_[v];
}

Graph MoriProcess::graph() const {
  GraphBuilder b(fathers_.size());
  b.reserve_edges(fathers_.size() - 1);
  for (std::size_t v = 1; v < fathers_.size(); ++v) {
    b.add_edge(static_cast<VertexId>(v), fathers_[v]);
  }
  return b.build();
}

void MoriProcess::graph_into(GenScratch& scratch, graph::Graph& out) const {
  scratch.builder.reset(fathers_.size());
  scratch.builder.reserve_edges(fathers_.size() - 1);
  for (std::size_t v = 1; v < fathers_.size(); ++v) {
    scratch.builder.add_edge(static_cast<VertexId>(v), fathers_[v]);
  }
  scratch.builder.build_into(out);
}

Graph mori_tree(std::size_t n, const MoriParams& params, rng::Rng& rng) {
  GenScratch scratch;
  Graph g;
  mori_tree(n, params, rng, scratch, g);
  return g;
}

void mori_tree(std::size_t n, const MoriParams& params, rng::Rng& rng,
               GenScratch& scratch, graph::Graph& out) {
  SFS_REQUIRE(n >= 2, "Mori tree needs at least 2 vertices");
  MoriProcess proc(params, scratch);
  proc.grow_to(n, rng);
  proc.graph_into(scratch, out);
  proc.release_scratch(scratch);
}

std::vector<VertexId> fathers(const Graph& tree) {
  std::vector<VertexId> f(tree.num_vertices(), kNoVertex);
  SFS_REQUIRE(tree.num_vertices() >= 1, "empty tree");
  SFS_REQUIRE(tree.num_edges() == tree.num_vertices() - 1,
              "not a recursive tree: wrong edge count");
  for (const graph::Edge& e : tree.edges()) {
    SFS_REQUIRE(e.head < e.tail, "edge does not point to an older vertex");
    SFS_REQUIRE(f[e.tail] == kNoVertex, "vertex has two out-edges");
    f[e.tail] = e.head;
  }
  for (std::size_t v = 1; v < f.size(); ++v) {
    SFS_REQUIRE(f[v] != kNoVertex, "non-root vertex without a father");
  }
  return f;
}

Graph merge_consecutive(const Graph& g, std::size_t m) {
  GenScratch scratch;
  Graph out;
  merge_consecutive(g, m, scratch, out);
  return out;
}

void merge_consecutive(const Graph& g, std::size_t m, GenScratch& scratch,
                       graph::Graph& out) {
  SFS_REQUIRE(m >= 1, "merge factor must be >= 1");
  SFS_REQUIRE(g.num_vertices() % m == 0,
              "vertex count must be a multiple of the merge factor");
  SFS_REQUIRE(&g != &out, "in-place merge is not supported");
  if (m == 1) {
    // GraphBuilder is the only way to make a Graph, so `g` already is the
    // CSR a rebuild from its edge list would pack: copy it instead.
    out = g;
    return;
  }
  const std::size_t n = g.num_vertices() / m;
  scratch.builder.reset(n);
  scratch.builder.reserve_edges(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    scratch.builder.add_edge(static_cast<VertexId>(e.tail / m),
                             static_cast<VertexId>(e.head / m));
  }
  scratch.builder.build_into(out);
}

Graph merged_mori_graph(std::size_t n, std::size_t m, const MoriParams& params,
                        rng::Rng& rng) {
  GenScratch scratch;
  Graph out;
  merged_mori_graph(n, m, params, rng, scratch, out);
  return out;
}

void merged_mori_graph(std::size_t n, std::size_t m, const MoriParams& params,
                       rng::Rng& rng, GenScratch& scratch, graph::Graph& out) {
  SFS_REQUIRE(n >= 1 && m >= 1, "need n, m >= 1");
  const std::size_t total = checked_mul(n, m, "merged Mori n*m overflows");
  SFS_REQUIRE(total >= 2, "underlying tree needs at least 2 vertices");
  mori_tree(total, params, rng, scratch, scratch.tmp_graph);
  merge_consecutive(scratch.tmp_graph, m, scratch, out);
}

}  // namespace sfs::gen
