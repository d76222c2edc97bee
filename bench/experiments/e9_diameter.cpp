// E9 — "This is in contrast with the logarithmic diameter of such graphs":
// the same models that defeat local search have O(log n) distances, so
// short paths exist — they just cannot be found locally.
//
// Mean distance and pseudo-diameter vs n for Móri, Cooper–Frieze, merged
// Móri and BA; the diameter/log2(n) ratio should be roughly flat while
// E1's search cost grows like sqrt(n). --quick shrinks the size grid.
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

namespace {

using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

void report(ExperimentContext& ctx, const std::string& model,
            const std::vector<std::size_t>& sizes,
            const std::function<Graph(std::size_t, Rng&)>& make) {
  sfs::sim::Table t("E9: distances in " + model,
                    {"n", "mean distance", "pseudo-diameter",
                     "diam / log2(n)"});
  for (const std::size_t n : sizes) {
    Rng rng(ctx.stream_seed("graph " + model));
    const Graph g = make(n, rng);
    Rng sample_rng(ctx.stream_seed("sample " + model));
    const auto st = sfs::graph::sample_distances(g, 10, sample_rng);
    const auto diam = sfs::graph::pseudo_diameter(g);
    t.row()
        .integer(n)
        .num(st.mean_distance, 2)
        .integer(diam)
        .num(static_cast<double>(diam) / std::log2(static_cast<double>(n)),
             3);
  }
  t.print(ctx.console());
  ctx.console() << '\n';
}

int run_e9(ExperimentContext& ctx) {
  ctx.console() << "E9: logarithmic distances in the non-searchable models "
                   "(short paths exist; finding them locally costs "
                   "sqrt(n)).\n\n";
  const auto sizes = ctx.sizes_or(
      ctx.options.quick
          ? std::vector<std::size_t>{1024, 4096}
          : std::vector<std::size_t>{4096, 16384, 65536, 262144});
  report(ctx, "Mori tree p=0.5", sizes, [](std::size_t n, Rng& rng) {
    return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
  });
  report(ctx, "merged Mori graph m=2, p=0.5", sizes,
         [](std::size_t n, Rng& rng) {
           return sfs::gen::merged_mori_graph(n, 2,
                                              sfs::gen::MoriParams{0.5},
                                              rng);
         });
  report(ctx, "Cooper-Frieze balanced", sizes, [](std::size_t n, Rng& rng) {
    sfs::gen::CooperFriezeParams params;
    return sfs::gen::cooper_frieze(n, params, rng).graph;
  });
  report(ctx, "Barabasi-Albert m=2", sizes, [](std::size_t n, Rng& rng) {
    return sfs::gen::barabasi_albert(
        n, sfs::gen::BarabasiAlbertParams{2}, rng);
  });
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e9_spec() {
  return {
      .name = "e9",
      .title = "Logarithmic diameter of the non-searchable models",
      .claim = "Short paths exist (diam ~ log n) in exactly the graphs where "
               "finding them locally costs sqrt(n)",
      .caps = sim::kCapSizes,
      .params =
          {
              {"--sizes", "size list", "4096..262144 (quick: 1024,4096)",
               "graph sizes per model"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; graph/sample streams per model"},
          },
      .run = run_e9,
  };
}

}  // namespace sfs::bench
