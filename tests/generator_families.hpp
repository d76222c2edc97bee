// The five generator families at test size, for tests that must hold on
// every family.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::test {

struct GeneratorFamily {
  std::string name;
  std::function<graph::Graph(rng::Rng&)> make;
};

/// One generator per family, each with `n` vertices.
inline std::vector<GeneratorFamily> generator_families(std::size_t n) {
  return {
      {"barabasi-albert",
       [n](rng::Rng& rng) { return gen::barabasi_albert(n, {.m = 2}, rng); }},
      {"configuration",
       [n](rng::Rng& rng) {
         // Not erased: self-loops and multi-edges stay.
         return gen::power_law_configuration_graph(
             n, {.exponent = 2.3, .d_min = 1}, {.erase_defects = false}, rng);
       }},
      {"cooper-frieze",
       [n](rng::Rng& rng) {
         gen::CooperFriezeParams params;
         return gen::cooper_frieze(n, params, rng).graph;
       }},
      {"mori-tree",
       [n](rng::Rng& rng) {
         return gen::mori_tree(n, gen::MoriParams{0.5}, rng);
       }},
      {"merged-mori",
       [n](rng::Rng& rng) {
         return gen::merged_mori_graph(n, 2, gen::MoriParams{0.5}, rng);
       }},
  };
}

}  // namespace sfs::test
