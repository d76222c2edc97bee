// Age bias: why the theorems target the NEWEST vertex.
//
//   ./age_bias [n] [seed]
//
// In evolving scale-free graphs, age and degree correlate: the oldest
// vertices are hubs every algorithm stumbles into, while the newest vertex
// is a leaf hidden among ~sqrt(n) statistical twins (Lemma 2). This example
// prints search cost as a function of target age, plus the degree/age
// profile that explains it.
#include <iostream>

#include "gen/mori.hpp"
#include "graph/degree.hpp"
#include "search/runner.hpp"
#include "search/weak_algorithms.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  std::size_t n = 8192;
  std::uint64_t seed = 21;
  if (argc > 1 && !sfs::sim::parse_size(argv[1], n)) {
    return sfs::sim::bad_number("[n]", argv[1]);
  }
  if (argc > 2 && !sfs::sim::parse_u64(argv[2], seed)) {
    return sfs::sim::bad_number("[seed]", argv[2]);
  }

  sfs::rng::Rng rng(seed);
  const auto g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);

  std::cout << "age_bias: Mori tree, n=" << n << "\n\n";

  // Degree/age profile.
  sfs::sim::Table profile("degree by age decile",
                          {"paper-id range", "mean degree", "max degree"});
  const std::size_t bucket = n / 10;
  for (std::size_t d = 0; d < 10; ++d) {
    const std::size_t lo = d * bucket;
    const std::size_t hi = d == 9 ? n : (d + 1) * bucket;
    double sum = 0.0;
    std::size_t dmax = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      const auto deg = g.degree(static_cast<sfs::graph::VertexId>(v));
      sum += static_cast<double>(deg);
      dmax = std::max(dmax, deg);
    }
    profile.row()
        .cell(std::to_string(lo + 1) + "-" + std::to_string(hi))
        .num(sum / static_cast<double>(hi - lo), 2)
        .integer(dmax);
  }
  profile.print(std::cout);

  // Search cost by target age (degree-greedy, from the middle-aged vertex
  // 2 so every row is comparable).
  std::cout << '\n';
  sfs::sim::Table cost("weak degree-greedy cost by target age",
                       {"target paper id", "requests", "found"});
  for (const std::size_t target :
       {std::size_t{1}, n / 8, n / 2, 7 * n / 8, n}) {
    auto greedy = sfs::search::make_degree_greedy_weak();
    sfs::rng::Rng search_rng(seed + target);
    const auto r = sfs::search::run_weak(
        g, 1, static_cast<sfs::graph::VertexId>(target - 1), *greedy,
        search_rng, sfs::search::RunBudget{.max_raw_requests = 100 * n});
    cost.row()
        .integer(target)
        .integer(r.requests)
        .cell(r.found ? "yes" : "no");
  }
  cost.print(std::cout);

  std::cout << "\nOld targets cost O(polylog); the newest costs "
               "Omega(sqrt(n)) — no labeling trick helps, because the last "
               "sqrt(n) vertices are probabilistically equivalent.\n";
  return 0;
}
