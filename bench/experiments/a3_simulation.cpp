// A3 — the strong-to-weak reduction, measured: Theorem 1's strong-model
// proof multiplies the weak bound by 1/max-degree. This ablation runs the
// same strong policy natively and through the StrongViaWeak simulation and
// reports the observed slowdown factor against the max-degree ceiling.
#include <string>
#include <vector>

#include "gen/mori.hpp"
#include "graph/degree.hpp"
#include "rng/stream_audit.hpp"
#include "search/runner.hpp"
#include "search/simulate.hpp"
#include "search/strong_algorithms.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "stats/summary.hpp"

namespace {

using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

int run_a3(ExperimentContext& ctx) {
  ctx.console() << "A3: strong-to-weak simulation overhead vs the "
                   "max-degree ceiling (Mori trees, degree-greedy inner "
                   "policy).\n\n";
  const bool quick = ctx.options.quick;
  const auto sizes = ctx.sizes_or(
      quick ? std::vector<std::size_t>{1024, 4096}
            : std::vector<std::size_t>{4096, 16384});
  const std::size_t reps = ctx.reps_or(quick ? 2 : 5);
  sfs::sim::Table t("A3: slowdown of simulating strong requests weakly",
                    {"p", "n", "max deg", "strong reqs", "weak reqs",
                     "slowdown", "ceiling (max deg)"});
  for (const double p : {0.2, 0.4, 0.6}) {
    for (const std::size_t n : sizes) {
      sfs::stats::Accumulator strong_reqs;
      sfs::stats::Accumulator weak_reqs;
      sfs::stats::Accumulator dmax_acc;
      const std::string cell =
          "p=" + sfs::sim::format_double(p, 1) + " n=" + std::to_string(n);
      const std::uint64_t graph_seed = ctx.stream_seed("graph " + cell);
      const std::uint64_t search_seed = ctx.stream_seed("search " + cell);
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        Rng graph_rng(sfs::rng::audited_stream_seed(graph_seed, 0, rep));
        const auto g =
            sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, graph_rng);
        dmax_acc.add(static_cast<double>(sfs::graph::max_degree(
            g, sfs::graph::DegreeKind::kUndirected)));

        sfs::search::StrongViaWeak sim(
            sfs::search::make_degree_greedy_strong());
        Rng rng(sfs::rng::audited_stream_seed(search_seed, 0, rep));
        const auto r = sfs::search::run_search(
            g, 0, static_cast<VertexId>(n - 1), sim, rng);
        weak_reqs.add(static_cast<double>(r.requests));
        strong_reqs.add(static_cast<double>(sim.strong_requests()));
      }
      t.row()
          .num(p, 1)
          .integer(n)
          .num(dmax_acc.mean(), 0)
          .num(strong_reqs.mean(), 0)
          .num(weak_reqs.mean(), 0)
          .num(weak_reqs.mean() / strong_reqs.mean(), 2)
          .num(dmax_acc.mean(), 0);
    }
  }
  t.print(ctx.console());
  ctx.console() << "\nExpected shape: slowdown well below the ceiling (the "
                   "reduction is pessimistic), and the ceiling itself "
                   "grows like n^p — exactly why the strong bound weakens "
                   "as p grows.\n";
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec a3_spec() {
  return {
      .name = "a3",
      .title = "Strong-to-weak reduction overhead vs max-degree ceiling",
      .claim = "Simulating strong requests weakly costs well under the "
               "max-degree factor the proof charges",
      .caps = sim::kCapSizes | sim::kCapReps,
      .params =
          {
              {"--sizes", "size list", "4096,16384 (quick: 1024,4096)",
               "tree sizes n"},
              {"--reps", "count", "5 (quick: 2)", "replications per cell"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; graph/search streams per cell"},
          },
      .run = run_a3,
  };
}

}  // namespace sfs::bench
