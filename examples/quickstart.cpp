// Quickstart: build a scale-free graph, search it under the paper's weak
// local-knowledge model, and compare what you paid against what was
// theoretically possible.
//
//   ./quickstart [n] [p] [seed]
//
// Walks through the core API: generator -> LocalView/searcher -> result,
// plus the Lemma-1 lower bound for context.
#include <cstdlib>
#include <iostream>

#include "core/lower_bound.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const double p = argc > 2 ? std::strtod(argv[2], nullptr) : 0.5;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;

  std::cout << "sfsearch quickstart: Mori tree, n=" << n << ", p=" << p
            << ", seed=" << seed << "\n\n";

  // 1. Generate a Móri random tree (mixed preferential/uniform attachment).
  sfs::rng::Rng rng(seed);
  const sfs::graph::Graph g =
      sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
  std::cout << "graph: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges, diameter ~ "
            << sfs::graph::pseudo_diameter(g) << " (logarithmic)\n";

  // 2. Search for the newest vertex (paper id n) from the oldest (id 1)
  //    with every portfolio policy under the weak knowledge model.
  const auto target = static_cast<sfs::graph::VertexId>(n - 1);
  std::cout << "\nweak-model search for vertex " << n << " from vertex 1:\n";
  const auto portfolio = sfs::search::make_weak_searchers(
      sfs::search::resolve_policies(sfs::search::KnowledgeModel::kWeak, {}));
  for (const auto& searcher : portfolio) {
    sfs::rng::Rng search_rng(seed + 1);
    const auto r = sfs::search::run_weak(
        g, 0, target, *searcher, search_rng,
        sfs::search::RunBudget{.max_raw_requests = 100 * n});
    std::cout << "  " << searcher->name() << ": "
              << (r.found ? "found" : "NOT FOUND") << " after " << r.requests
              << " requests (path length " << r.path_length << ")\n";
  }

  // 3. Context: the paper's lower bound says nobody can do well here.
  const auto bound = sfs::core::mori_lower_bound(p, n, 2000, seed);
  std::cout << "\nTheorem 1 context: vertex " << n << " sits in a window of "
            << bound.window_size
            << " equivalent vertices (P(E) ~= " << bound.event.probability
            << "), so ANY weak algorithm needs >= " << bound.bound
            << " expected requests — Omega(sqrt(n)).\n";
  return 0;
}
