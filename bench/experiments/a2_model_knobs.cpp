// A2 — model-knob ablation: how the generator parameters move the
// searchability needle.
//
//  * Móri p (uniform vs preferential mix): the lower bound is sqrt(n) for
//    ALL p, but constants shift — higher p concentrates degree, which
//    helps degree-seeking policies find OLD vertices yet does nothing for
//    the newest.
//  * merge factor m: denser merged graphs (more edges per vertex) change
//    the absolute cost but not the scaling.
//  * Cooper-Frieze preference mode (indegree vs total degree): the paper
//    rephrases CF to indegree; this ablation shows the choice does not
//    rescue searchability.
#include <functional>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"

namespace {

using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

double best_cost(const sfs::sim::GraphFactory& factory, std::size_t n,
                 std::uint64_t seed) {
  const auto cost = sfs::sim::measure_portfolio({
      .factory = factory,
      .endpoints = sfs::sim::oldest_to_newest(),
      .seed = seed,
      .budget = {.max_raw_requests = 40 * n},
  });
  return cost.best_policy().requests.mean;
}

double fitted_exponent(
    ExperimentContext& ctx,
    const std::function<sfs::sim::GraphFactory(std::size_t)>& factory_at,
    const std::vector<std::size_t>& sizes, std::size_t reps,
    const std::string& stream) {
  const auto series = sfs::sim::measure_scaling(
      sizes, reps, ctx.stream_seed(stream),
      [&](std::size_t n, std::uint64_t s) {
        return best_cost(factory_at(n), n, s);
      },
      {.threads = ctx.threads()});
  // The no-fit contract: never quote the default slope 0.0 as measured.
  SFS_REQUIRE(series.has_fit(), "A2: no usable exponent fit");
  return series.fit.slope;
}

int run_a2(ExperimentContext& ctx) {
  ctx.console() << "A2: generator-knob ablation (fitted exponent of best "
                   "weak cost, newest-vertex target).\n\n";
  const auto sizes = ctx.sizes_or(
      ctx.options.quick ? std::vector<std::size_t>{512, 1024, 2048}
                        : std::vector<std::size_t>{1024, 2048, 4096, 8192});
  const auto reps = ctx.reps_or(ctx.options.quick ? 2 : 5);

  sfs::sim::Table mori("A2: Mori p sweep", {"p", "fitted exponent"});
  for (const double p : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    mori.row().num(p, 1).num(
        fitted_exponent(
            ctx,
            [p](std::size_t n) {
              return [n, p](Rng& rng) {
                return sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
              };
            },
            sizes, reps, "mori p=" + sfs::sim::format_double(p, 1)),
        3);
  }
  mori.print(ctx.console());
  ctx.console() << '\n';

  sfs::sim::Table merge("A2: merge factor sweep (p=0.5)",
                        {"m", "fitted exponent"});
  for (const std::size_t m : {1u, 2u, 4u, 8u}) {
    merge.row().integer(m).num(
        fitted_exponent(
            ctx,
            [m](std::size_t n) {
              return [n, m](Rng& rng) {
                return sfs::gen::merged_mori_graph(
                    n, m, sfs::gen::MoriParams{0.5}, rng);
              };
            },
            sizes, reps, "merge m=" + std::to_string(m)),
        3);
  }
  merge.print(ctx.console());
  ctx.console() << '\n';

  sfs::sim::Table cf("A2: Cooper-Frieze preference mode",
                     {"preference", "fitted exponent"});
  for (const auto pref : {sfs::gen::Preference::kInDegree,
                          sfs::gen::Preference::kTotalDegree}) {
    const std::string label =
        pref == sfs::gen::Preference::kInDegree ? "indegree" : "total degree";
    cf.row().cell(label).num(
        fitted_exponent(
            ctx,
            [pref](std::size_t n) {
              return [n, pref](Rng& rng) {
                sfs::gen::CooperFriezeParams params;
                params.preference = pref;
                return sfs::gen::cooper_frieze(n, params, rng).graph;
              };
            },
            sizes, reps, "cf " + label),
        3);
  }
  cf.print(ctx.console());

  ctx.console() << "\nExpected shape: every row fits an exponent "
                   "comfortably >= 0.5 — no knob makes the newest vertex "
                   "easy to find.\n";
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_a2({
    .name = "a2",
    .title = "Generator-knob ablation: fitted exponents across p, m, pref",
    .claim = "No generator knob (Mori p, merge factor, CF preference mode) "
             "pulls the newest-target exponent below 0.5",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSizes | sfs::sim::kCapReps |
            sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "1024..8192 (quick: 512..2048)",
             "n grid of each exponent fit"},
            {"--reps", "count", "5 (quick: 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; one stream per knob row"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_a2,
});

}  // namespace
