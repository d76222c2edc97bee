// Navigability study: the paper's headline contrast in one program.
//
//   ./navigability_study [scale] [seed]
//
// Row i (0 <= i < scale) measures grids of side 16 * 2^i, so scale is
// 1..8: the largest grid at scale 8 has 2^22 vertices.
//
// Kleinberg's small-world grid at r = 2 is *navigable*: greedy routing
// with coordinates finds polylog paths. Random scale-free graphs are NOT:
// even the best local algorithm pays polynomial cost to find the newest
// vertex, despite the diameter being just as small. This example measures
// both on comparable sizes side by side.
#include <cmath>
#include <exception>
#include <iostream>

#include "gen/kleinberg.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "search/kleinberg_routing.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "stats/summary.hpp"

namespace {

using sfs::graph::VertexId;

// Scale 8 already builds a 2^22-vertex grid and Móri graph.
constexpr std::size_t kMaxScale = 8;

double mean_greedy_route(std::size_t L, std::uint64_t seed) {
  sfs::rng::Rng rng(seed);
  const sfs::gen::KleinbergGrid grid(L, sfs::gen::KleinbergParams{2.0, 1},
                                     rng);
  sfs::stats::Accumulator acc;
  for (int i = 0; i < 200; ++i) {
    const auto s =
        static_cast<VertexId>(rng.uniform_index(grid.num_vertices()));
    const auto t =
        static_cast<VertexId>(rng.uniform_index(grid.num_vertices()));
    acc.add(static_cast<double>(sfs::search::greedy_route(grid, s, t).steps));
  }
  return acc.mean();
}

double best_weak_cost(std::size_t n, std::uint64_t seed) {
  sfs::rng::Rng rng(seed);
  const auto g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
  double best = 1e18;
  const auto portfolio = sfs::search::make_weak_searchers(
      sfs::search::resolve_policies(sfs::search::KnowledgeModel::kWeak, {}));
  for (const auto& searcher : portfolio) {
    sfs::rng::Rng search_rng(seed + 1);
    const auto r = sfs::search::run_weak(
        g, 0, static_cast<VertexId>(n - 1), *searcher, search_rng,
        sfs::search::RunBudget{.max_raw_requests = 50 * n});
    if (r.found) best = std::min(best, static_cast<double>(r.requests));
  }
  return best;
}

int run(int argc, char** argv) {
  std::size_t scale = 4;
  std::uint64_t seed = 3;
  if (argc > 1 && !sfs::sim::parse_size(argv[1], scale)) {
    return sfs::sim::bad_number("[scale]", argv[1]);
  }
  if (argc > 2 && !sfs::sim::parse_u64(argv[2], seed)) {
    return sfs::sim::bad_number("[seed]", argv[2]);
  }
  if (scale < 1 || scale > kMaxScale) {
    std::cerr << "error: [scale] must be in [1, " << kMaxScale << "], got "
              << scale << "\n";
    return 1;
  }

  std::cout << "navigability_study: Kleinberg grid (r=2, navigable) vs "
               "Mori scale-free graph (non-searchable), matched sizes.\n\n";

  sfs::sim::Table t("local search cost vs n",
                    {"n", "Kleinberg greedy route (hops)",
                     "Mori best weak search (requests)", "sqrt(n)",
                     "log2(n)^2"});
  for (std::size_t i = 0; i < scale; ++i) {
    const std::size_t L = std::size_t{16} << i;  // 16, 32, 64, 128...
    const std::size_t n = L * L;                 // matched vertex count
    const double route = mean_greedy_route(L, seed + i);
    const double weak = best_weak_cost(n, seed + 100 + i);
    const double lg = std::log2(static_cast<double>(n));
    t.row()
        .integer(n)
        .num(route, 1)
        .num(weak, 1)
        .num(std::sqrt(static_cast<double>(n)), 1)
        .num(lg * lg, 1);
  }
  t.print(std::cout);

  std::cout << "\nReading: the Kleinberg column tracks log^2(n) (navigable); "
               "the Mori column tracks sqrt(n) (Theorem 1). Both graph "
               "families have O(log n) diameter — short paths exist in "
               "both, but only geographic structure makes them findable.\n";
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
