// E5 — Móri (2005): the maximum degree of the Móri tree G_t grows like
// t^p. This is the lever of Theorem 1's strong-model half: a strong
// request can be simulated by at most max-degree weak requests.
//
// Max indegree vs t, fitted exponent against p. --quick shrinks the grid.
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "gen/mori.hpp"
#include "graph/degree.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

namespace {

using sfs::sim::ExperimentContext;

int run_e5(ExperimentContext& ctx) {
  ctx.console() << "Mori 2005: max degree of G_t is Theta(t^p).\n\n";
  const auto sizes = ctx.sizes_or(
      ctx.options.quick
          ? std::vector<std::size_t>{4096, 8192, 16384}
          : std::vector<std::size_t>{4096, 8192, 16384, 32768, 65536,
                                     131072});
  const auto reps = ctx.reps_or(ctx.options.quick ? 2 : 5);
  for (const double p : {0.25, 0.5, 0.75, 1.0}) {
    const std::string tag = "p=" + sfs::sim::format_double(p, 2);
    const auto series = sfs::sim::measure_scaling(
        sizes, reps, ctx.stream_seed(tag),
        [p](std::size_t n, std::uint64_t seed) {
          sfs::rng::Rng rng(seed);
          const auto g =
              sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
          return static_cast<double>(
              sfs::graph::max_degree(g, sfs::graph::DegreeKind::kIn));
        },
        {.threads = ctx.threads()});
    sfs::sim::print_scaling(
        "E5: max indegree of Mori tree, " + tag, series, "max degree",
        sfs::core::theory::mori_max_degree_exponent(p), "t^p exponent",
        *ctx.emitter);
  }
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_e5({
    .name = "e5",
    .title = "Mori 2005: max degree of G_t grows like t^p",
    .claim = "The hub-growth exponent behind the strong-model reduction "
             "(max-degree weak requests simulate one strong request)",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSizes | sfs::sim::kCapReps |
            sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "4096..131072 (quick: 4096..16384)",
             "tree sizes t"},
            {"--reps", "count", "5 (quick: 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; one stream per p"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_e5,
});

}  // namespace
