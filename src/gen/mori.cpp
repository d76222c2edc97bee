#include "gen/mori.hpp"

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Graph;
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
  init_seed_state();
}

void MoriProcess::init_seed_state() {
  fathers_.assign({kNoVertex, 0});  // vertex 1 attaches to vertex 0
}

void MoriProcess::release_scratch(GenScratch& scratch) noexcept {
  fathers_.swap(scratch.fathers);
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
    // Indegree-proportional: the head of a uniform past edge. Edge k's
    // head is fathers_[k + 1], so fathers_[1..size()-1] is the bag of
    // past heads.
    father = fathers_[1 + static_cast<std::size_t>(
                              rng.uniform_index(fathers_.size() - 1))];
  } else {
    father = static_cast<VertexId>(rng.uniform_index(fathers_.size()));
  }
  fathers_.push_back(father);
  return father;
}

void MoriProcess::grow_to(std::size_t n, rng::Rng& rng) {
  SFS_REQUIRE(n >= 2, "Mori tree needs at least 2 vertices");
  SFS_REQUIRE(n <= static_cast<std::size_t>(kNoVertex),
              "Mori tree vertex count overflows VertexId");
  while (fathers_.size() < n) (void)step(rng);
}

Graph MoriProcess::graph() const {
  Graph g;
  graph::build_recursive_tree(fathers_, g);
  return g;
}

void MoriProcess::graph_into(GenScratch& /*scratch*/,
                             graph::Graph& out) const {
  graph::build_recursive_tree(fathers_, out);
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
    // Every Graph is the CSR GraphBuilder packs from its edge list
    // (build_recursive_tree packs the same one), so `g` already is what a
    // rebuild would give: copy it instead.
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
  if (m == 1) {
    mori_tree(total, params, rng, scratch, out);
    return;
  }
  mori_tree(total, params, rng, scratch, scratch.tmp_graph);
  merge_consecutive(scratch.tmp_graph, m, scratch, out);
}

}  // namespace sfs::gen
