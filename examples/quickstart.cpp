// Quickstart: build a scale-free graph, search it under the paper's weak
// local-knowledge model, and compare what you paid against what was
// theoretically possible.
//
//   ./quickstart [n] [p] [seed]
//
// Walks through the core API: generator -> LocalView/searcher -> result,
// plus the Lemma-1 lower bound for context.
#include <exception>
#include <iostream>

#include "core/lower_bound.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"
#include "sim/experiment.hpp"

namespace {

int run(int argc, char** argv) {
  std::size_t n = 4096;
  double p = 0.5;
  std::uint64_t seed = 7;
  if (argc > 1 && !sfs::sim::parse_size(argv[1], n)) {
    return sfs::sim::bad_number("[n]", argv[1]);
  }
  if (argc > 2 && !sfs::sim::parse_double(argv[2], p)) {
    return sfs::sim::bad_number("[p]", argv[2]);
  }
  if (argc > 3 && !sfs::sim::parse_u64(argv[3], seed)) {
    return sfs::sim::bad_number("[seed]", argv[3]);
  }

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
  const auto portfolio = sfs::search::make_searchers(
      sfs::search::resolve_policies(sfs::search::KnowledgeModel::kWeak, {}));
  for (const auto& searcher : portfolio) {
    sfs::rng::Rng search_rng(seed + 1);
    const auto r = sfs::search::run_search(
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

}  // namespace

// A library precondition (a size the generator cannot build, an exponent
// out of range) is reported like a malformed number: a message and exit 1.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
